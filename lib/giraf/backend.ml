(* The dispatch-backend seam: the mailbox semantics both backends share.
   See backend.mli. *)

open Anon_kernel

(* {!insert}'s filing: one arrival round's entries, newest first and
   unsorted until a reader sorts them. [peek] keeps the sorted entries,
   in reverse canonical order (the entry [fresh] lists last comes
   first), and [insert] files into such a bucket in order. A change
   builds a new bucket, so copies can share buckets. *)
type 'msg bucket = { arrival : int; sorted : bool; entries : (int * 'msg) list }

(* {!Round.file}'s filing of one lockstep round, sent in round [sent].
   Entry [index], in filing order (ascending message, equal messages by
   the later-dispatched sender first), is [sender]'s message, which every
   member of [receivers] but the sender holds from round [at]. A sender's
   self-delivery is an entry of its own with no receivers, which only the
   sender's share references. The filing lists the others, its loud
   entries, by descending index: [timely] those arriving in round
   [sent], [late] the rest. [timely], [late], [next] (the index the next
   entry takes) and [last] (the latest arrival) change only while
   {!Round.file} fills it. *)
type 'msg entry = { index : int; at : int; sender : int; msg : 'msg; receivers : Pidset.t }

type 'msg filing = {
  sent : int;
  mutable timely : 'msg entry list;
  mutable late : 'msg entry list;
  mutable next : int;
  mutable last : int;
}

(* A receiver's reference to a filing, with its self-delivery there:
   the sender's own share; every other share names an entry of index -1
   instead, which nobody holds. *)
type 'msg share = { filing : 'msg filing; self : 'msg entry }

(* Process [p]'s mailbox is [buckets.(p)], filled by {!insert} (in
   descending arrival order), or [shares.(p)], filled by {!Round.file}
   (latest round first), of which [p] holds the entries arriving after
   round [taken.(p)], the latest round it took; the other one is empty.
   The ready buckets are a suffix, already in the order [take] folds
   them. *)
type 'msg t = {
  buckets : 'msg bucket list array;
  shares : 'msg share list array;
  taken : int array;
}

let create ~n =
  { buckets = Array.make n []; shares = Array.make n []; taken = Array.make n min_int }

let copy t =
  { buckets = Array.copy t.buckets; shares = Array.copy t.shares; taken = Array.copy t.taken }

let clear t p =
  t.buckets.(p) <- [];
  t.shares.(p) <- []

(* Same-object messages compare equal without walking the structure — a
   broadcast shares one message value across its receivers. *)
let compare_msg compare m1 m2 = if m1 == m2 then 0 else compare m1 m2

let named q e = e.sender <> q && Pidset.mem q e.receivers

(* [f] over the entries of share [s] that [q] holds from after round
   [from] up to round [upto]: its self-delivery and every loud entry
   naming it, the sender's own groups excepted; the timely ones in
   descending index, then the late ones. *)
let fold_held q ~from ~upto (s : _ share) f acc =
  let visible e = e.at > from && e.at <= upto in
  let rec go acc si = function
    | e :: tl as loud ->
      if si > e.index then go (f acc s.self) (-1) loud
      else go (if visible e && named q e then f acc e else acc) si tl
    | [] -> if si >= 0 then f acc s.self else acc
  in
  let acc = go acc (if visible s.self then s.self.index else -1) s.filing.timely in
  go acc (-1) s.filing.late

(* The [(arrival, sent, msg)] entries [q] holds in [shares] from after
   round [from] up to round [upto], in canonical order: ascending
   arrival, then sent round, then filing order. *)
let held q ~from ~upto shares =
  let tagged =
    List.fold_left
      (fun acc (s : _ share) ->
        fold_held q ~from ~upto s (fun acc e -> (e.at, s.filing.sent, e.index, e.msg) :: acc) acc)
      [] shares
  in
  List.map
    (fun (a, s, _, m) -> (a, s, m))
    (List.sort
       (fun (a1, s1, i1, _) (a2, s2, i2, _) ->
         match Int.compare a1 a2 with
         | 0 -> ( match Int.compare s1 s2 with 0 -> Int.compare i1 i2 | c -> c)
         | c -> c)
       tagged)

(* [acc] behind a bucket's entries as [(arrival, sent, msg)] triples, in
   canonical order. *)
let rec list_bucket arrival acc = function
  | [] -> acc
  | (sent, m) :: tl -> list_bucket arrival ((arrival, sent, m) :: acc) tl

(* A bucket's entries in reverse canonical order. A stable sort of
   [insert]'s newest-first list keeps equal entries newest first, the
   order [fresh] reads them. *)
let entries ~compare b =
  if b.sorted then b.entries
  else
    List.rev
      (List.stable_sort
         (fun (s1, m1) (s2, m2) ->
           match Int.compare s1 s2 with 0 -> compare_msg compare m1 m2 | c -> c)
         b.entries)

let length t p =
  List.fold_left (fun acc b -> acc + List.length b.entries) 0 t.buckets.(p)
  + List.fold_left
      (fun acc s -> fold_held p ~from:t.taken.(p) ~upto:max_int s (fun n _ -> n + 1) acc)
      0 t.shares.(p)

let to_list ~compare t p =
  match t.shares.(p) with
  | [] ->
    List.fold_left (fun acc b -> list_bucket b.arrival acc (entries ~compare b)) [] t.buckets.(p)
  | ss -> held p ~from:t.taken.(p) ~upto:max_int ss

let rec find_bucket arrival = function
  | b :: tl when b.arrival > arrival -> find_bucket arrival tl
  | b :: _ when b.arrival = arrival -> Some b
  | _ -> None

(* [bs] with [b] in its place, replacing the bucket of the same arrival. *)
let rec set_bucket b = function
  | b' :: tl when b'.arrival > b.arrival -> b' :: set_bucket b tl
  | b' :: tl when b'.arrival = b.arrival -> b :: tl
  | bs -> b :: bs

(* Sorted [entries] with [(sent, msg)] after its equal entries, which
   are older. *)
let rec place ~compare sent msg = function
  | (s, m) :: tl when s > sent || (s = sent && compare_msg compare m msg >= 0) ->
    (s, m) :: place ~compare sent msg tl
  | entries -> (sent, msg) :: entries

let insert ~compare t p ~arrival ~sent msg =
  (match t.shares.(p) with
  | [] -> ()
  | _ :: _ -> invalid_arg "Backend.insert: a mailbox Round.file filled");
  let bs = t.buckets.(p) in
  let b =
    match find_bucket arrival bs with
    | Some ({ sorted = true; _ } as b) -> { b with entries = place ~compare sent msg b.entries }
    | Some b -> { arrival; sorted = false; entries = (sent, msg) :: b.entries }
    | None -> { arrival; sorted = false; entries = [ (sent, msg) ] }
  in
  t.buckets.(p) <- set_bucket b bs

(* Round [round]'s message set from a bucket's front run of [sent =
   round] entries. The run is in reverse [fresh] order, so keeping the
   first of each equal run keeps the copy [fresh] lists last, and consing
   yields ascending order. *)
let current_of ~compare ~(round : int) entries =
  let rec uniq acc prev = function
    | (s, m) :: tl when s = round ->
      if compare_msg compare prev m = 0 then uniq acc m tl else uniq (m :: acc) m tl
    | _ -> acc
  in
  match entries with (s, m) :: tl when s = round -> uniq [ m ] m tl | _ -> []

(* The same set from the timely entries of a round-[round] filing that
   [q] holds, walked as a bucket holding them would be: in reverse
   [fresh] order, with the same adjacent comparisons. [first_held] looks
   for the first message, [uniq] walks on from the previous one, [prev];
   [si] is the index of [q]'s self-delivery [sm] until it is walked, -1
   after. *)
let rec first_held compare q si sm = function
  | e :: tl as loud ->
    if si > e.index then uniq compare q [ sm ] sm (-1) sm loud
    else if named q e then uniq compare q [ e.msg ] e.msg si sm tl
    else first_held compare q si sm tl
  | [] -> if si >= 0 then [ sm ] else []

and uniq compare q acc prev si sm = function
  | e :: tl as loud ->
    if si > e.index then step compare q acc prev sm (-1) sm loud
    else if named q e then step compare q acc prev e.msg si sm tl
    else uniq compare q acc prev si sm tl
  | [] -> if si >= 0 then step compare q acc prev sm (-1) sm [] else acc

and step compare q acc prev m si sm loud =
  if compare_msg compare prev m = 0 then uniq compare q acc m si sm loud
  else uniq compare q (m :: acc) m si sm loud

(* Round [round]'s share, if [q] holds one: the shares are latest round
   first. *)
let rec share_of (round : int) = function
  | (s : _ share) :: tl ->
    if s.filing.sent > round then share_of round tl
    else if s.filing.sent = round then Some s
    else None
  | [] -> None

let current_share ~compare q ~round ss =
  match share_of round ss with
  | Some s -> first_held compare q s.self.index s.self.msg s.filing.timely
  | None -> []

(* The shares with an entry arriving after [round], sharing the longest
   suffix it can. *)
let rec pending (round : int) = function
  | [] -> []
  | (s : _ share) :: tl as ss ->
    let rest = pending round tl in
    if s.filing.last <= round then rest else if rest == tl then ss else s :: rest

(* The buckets at or before [round]: a suffix. *)
let rec ready_from round = function
  | b :: tl when b.arrival > round -> ready_from round tl
  | ready -> ready

(* The elements before the suffix [ready]. *)
let rec until ready = function
  | l when l == ready -> []
  | x :: tl -> x :: until ready tl
  | [] -> []

(* Drained buckets have left the mailbox, and neither buckets nor
   filings change once built: [fresh] reads the same whenever it is forced, even
   while a copy still holds them. *)
let take ~compare t p ~round =
  let from = t.taken.(p) in
  t.taken.(p) <- Int.max from round;
  match t.shares.(p) with
  | [] -> (
    let bs = t.buckets.(p) in
    let ready = ready_from round bs in
    t.buckets.(p) <- until ready bs;
    match ready with
    | [] -> ([], Lazy.from_val [])
    | b :: older ->
      let latest = entries ~compare b in
      (* Arrivals never precede sends (every backend clamps [arrival >=
         sent]), so round-[round] messages can only sit in bucket
         [round]. *)
      let current = if b.arrival = round then current_of ~compare ~round latest else [] in
      ( current,
        lazy
          (List.fold_left
             (fun fresh b -> List.rev_append (entries ~compare b) fresh)
             (List.rev latest) older) ))
  | ss ->
    t.shares.(p) <- pending round ss;
    (* Only the round-[round] filing holds round-[round] messages, among
       its timely entries. *)
    ( (if from >= round then [] else current_share ~compare p ~round ss),
      lazy (List.map (fun (_, s, m) -> (s, m)) (held p ~from ~upto:round ss)) )

let peek ~compare t p ~arrival ~sent =
  let rec from_sent = function (s, _) :: tl when s > sent -> from_sent tl | es -> es in
  match t.shares.(p) with
  | [] -> (
    let bs = t.buckets.(p) in
    match find_bucket arrival bs with
    | Some b ->
      let entries = entries ~compare b in
      if not b.sorted then t.buckets.(p) <- set_bucket { b with sorted = true; entries } bs;
      current_of ~compare ~round:sent (from_sent entries)
    | None -> [])
  | _ :: _ -> invalid_arg "Backend.peek: a mailbox Round.file filled"

module Round = struct
  type 'msg boxes = 'msg t

  (* The round's broadcasts in dispatch order: sender [i] is [pids.(i)]
     with message [msgs.(i)] and groups [\[firsts.(i), firsts.(i + 1))]
     (the last one's end at [ngroups]); group [g] reaches [sets.(g)] at
     [arrivals.(g)]. [mark.(q) = filing] while filing says [q] sent this
     round. The arrays are scratch, kept across rounds. *)
  type 'msg t = {
    n : int;
    mutable sent : int;
    mutable msgs : 'msg array;
    mutable pids : int array;
    mutable firsts : int array;
    mutable nsenders : int;
    mutable arrivals : int array;
    mutable sets : Pidset.t array;
    mutable ngroups : int;
    mark : int array;
    mutable filing : int;
  }

  let create ~n =
    {
      n;
      sent = 0;
      msgs = [||];
      pids = Array.make n 0;
      firsts = Array.make n 0;
      nsenders = 0;
      arrivals = Array.make (2 * n) 0;
      sets = Array.make (2 * n) Pidset.empty;
      ngroups = 0;
      mark = Array.make n 0;
      filing = 0;
    }

  let reset r ~sent =
    r.sent <- sent;
    r.nsenders <- 0;
    r.ngroups <- 0

  (* [a] with room for [i], grown with [fill]. *)
  let room a i fill =
    if i < Array.length a then a
    else
      let b = Array.make ((2 * i) + 1) fill in
      Array.blit a 0 b 0 (Array.length a);
      b

  let send r ~sender msg =
    let i = r.nsenders in
    if i = Array.length r.pids || i = Array.length r.msgs then begin
      r.msgs <- room r.msgs i msg;
      r.pids <- room r.pids i 0;
      r.firsts <- room r.firsts i 0
    end;
    r.msgs.(i) <- msg;
    r.pids.(i) <- sender;
    r.firsts.(i) <- r.ngroups;
    r.nsenders <- i + 1

  let deliver r ~arrival receivers =
    if r.nsenders = 0 then invalid_arg "Backend.Round.deliver: no broadcast recorded";
    let g = r.ngroups in
    if g = Array.length r.arrivals then begin
      r.arrivals <- room r.arrivals g 0;
      r.sets <- room r.sets g Pidset.empty
    end;
    r.arrivals.(g) <- arrival;
    r.sets.(g) <- receivers;
    r.ngroups <- g + 1

  let rec indices i acc = if i < 0 then acc else indices (i - 1) (i :: acc)

  (* The broadcasts in filing order: ascending message, equal messages
     latest sender first (descending pid in lockstep) — the order
     [fresh] reads them. *)
  let ordered ~compare r =
    let msgs = r.msgs in
    List.sort
      (fun i j -> match compare_msg compare msgs.(i) msgs.(j) with 0 -> Int.compare j i | c -> c)
      (indices (r.nsenders - 1) [])

  let add_share (boxes : 'msg boxes) q (s : _ share) =
    (match boxes.buckets.(q) with
    | [] -> ()
    | _ :: _ -> invalid_arg "Backend.Round.file: a mailbox insert filled");
    if boxes.taken.(q) >= s.filing.sent then
      invalid_arg "Backend.Round.file: round already taken";
    boxes.shares.(q) <- s :: boxes.shares.(q)

  let add_entry f ~at ~sender msg receivers =
    let e = { index = f.next; at; sender; msg; receivers } in
    if at = f.sent then f.timely <- e :: f.timely
    else begin
      f.late <- e :: f.late;
      if at > f.last then f.last <- at
    end;
    f.next <- f.next + 1

  (* Sender [s]'s groups [\[g, last)], each an entry of the filing. *)
  let rec fill_groups r f (s : int) g last =
    if g < last then begin
      add_entry f ~at:r.arrivals.(g) ~sender:r.pids.(s) r.msgs.(s) r.sets.(g);
      fill_groups r f s (g + 1) last
    end

  (* Every sender in filing order: its self-delivery, which its share
     references, then its groups. *)
  let rec fill r boxes f = function
    | [] -> ()
    | s :: tl ->
      let pid = r.pids.(s) in
      let self =
        { index = f.next; at = r.sent; sender = pid; msg = r.msgs.(s); receivers = Pidset.empty }
      in
      f.next <- f.next + 1;
      if pid < r.n then begin
        r.mark.(pid) <- r.filing;
        add_share boxes pid { filing = f; self }
      end;
      fill_groups r f s r.firsts.(s) (if s + 1 < r.nsenders then r.firsts.(s + 1) else r.ngroups);
      fill r boxes f tl

  let rec union u = function [] -> u | e :: tl -> union (Pidset.union u e.receivers) tl

  (* Every receiver the filing names that did not send gets a share of
     it, one record for all. *)
  let share r (boxes : 'msg boxes) f =
    match (f.timely, f.late) with
    | [], [] -> ()
    | (e :: _, _ | [], e :: _) ->
      let named = union (union Pidset.empty f.timely) f.late in
      let s = { filing = f; self = { e with index = -1 } } in
      for q = 0 to r.n - 1 do
        if r.mark.(q) <> r.filing && Pidset.mem q named then add_share boxes q s
      done

  let file ~compare r (boxes : 'msg boxes) =
    if r.nsenders > 0 then begin
      r.filing <- r.filing + 1;
      let f = { sent = r.sent; timely = []; late = []; next = 0; last = r.sent } in
      fill r boxes f (ordered ~compare r);
      share r boxes f
    end
end
