(* The dispatch-backend seam: the mailbox semantics both backends share.
   See backend.mli. *)

open Anon_kernel

(* {!insert}'s filing: one arrival round's entries, newest first and
   unsorted until a reader sorts them. [peek] keeps the sorted entries,
   in reverse canonical order (the entry [fresh] lists last comes
   first), and [insert] files into such a bucket in order. A change
   builds a new bucket, so copies can share buckets. *)
type 'msg bucket = { arrival : int; sorted : bool; entries : (int * 'msg) list }

(* {!file}'s filing of one lockstep round, sent in round [sent].
   Entry [index], in filing order (ascending message, equal messages by
   the later-dispatched sender first), is [sender]'s message, which every
   member of its [group]'s receivers but the sender holds from the
   group's arrival; the group is the dispatched one. A sender's
   self-delivery takes the index just before its groups' entries and
   lives in the sender's share only.
   The filing lists the other entries, its loud ones, by descending
   index: [timely] those arriving in round [sent], [late] the rest.
   [timely], [late] and [last] (the latest arrival) change only while
   {!file} fills it. *)
type 'msg entry = { index : int; sender : int; msg : 'msg; group : Adversary.group }

type 'msg filing = {
  sent : int;
  mutable timely : 'msg entry list;
  mutable late : 'msg entry list;
  mutable last : int;
}

(* A receiver's reference to a filing: the sender's own share holds its
   self-delivery, message [sm] at index [si], timely; every other share
   has [si = -1], an index no entry takes, and [sm] is never read. *)
type 'msg share = { filing : 'msg filing; si : int; sm : 'msg }

(* Process [p]'s mailbox is [buckets.(p)], filled by {!insert} (in
   descending arrival order), or [shares.(p)], filled by {!file}
   (latest round first), of which [p] holds the entries arriving after
   round [taken.(p)], the latest round it took; the other one is empty.
   The ready buckets are a suffix, already in the order [take] folds
   them. [buckets] stays [[||]] until the first {!insert}: a lockstep
   mailbox never allocates it. *)
type 'msg t = {
  mutable buckets : 'msg bucket list array;
  shares : 'msg share list array;
  taken : int array;
}

let create ~n = { buckets = [||]; shares = Array.make n []; taken = Array.make n min_int }

let copy t =
  { buckets = Array.copy t.buckets; shares = Array.copy t.shares; taken = Array.copy t.taken }

let buckets t p = if Array.length t.buckets = 0 then [] else t.buckets.(p)

let clear t p =
  if Array.length t.buckets > 0 then t.buckets.(p) <- [];
  t.shares.(p) <- []

(* Same-object messages compare equal without walking the structure — a
   broadcast shares one message value across its receivers. *)
let compare_msg compare m1 m2 = if m1 == m2 then 0 else compare m1 m2

let named q e = e.sender <> q && Pidset.mem q e.group.receivers

(* [f] over the entries of share [s] that [q] holds from after round
   [from] up to round [upto], as [f acc ~at ~index msg]: its
   self-delivery and every loud entry naming it, the sender's own groups
   excepted; the timely ones in descending index, then the late ones. *)
let fold_held q ~from ~upto (s : _ share) f acc =
  let sent = s.filing.sent in
  let rec go acc si = function
    | e :: tl as loud ->
      if si > e.index then go (f acc ~at:sent ~index:si s.sm) (-1) loud
      else
        let at = e.group.arrival in
        go
          (if at > from && at <= upto && named q e then f acc ~at ~index:e.index e.msg else acc)
          si tl
    | [] -> if si >= 0 then f acc ~at:sent ~index:si s.sm else acc
  in
  let acc = go acc (if sent > from && sent <= upto then s.si else -1) s.filing.timely in
  go acc (-1) s.filing.late

(* The [(arrival, sent, msg)] entries [q] holds in [shares] from after
   round [from] up to round [upto], in canonical order: ascending
   arrival, then sent round, then filing order. *)
let held q ~from ~upto shares =
  let tagged =
    List.fold_left
      (fun acc (s : _ share) ->
        let sent = s.filing.sent in
        fold_held q ~from ~upto s (fun acc ~at ~index m -> (at, sent, index, m) :: acc) acc)
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
  List.fold_left (fun acc b -> acc + List.length b.entries) 0 (buckets t p)
  + List.fold_left
      (fun acc s ->
        fold_held p ~from:t.taken.(p) ~upto:max_int s (fun n ~at:_ ~index:_ _ -> n + 1) acc)
      0 t.shares.(p)

let to_list ~compare t p =
  match t.shares.(p) with
  | [] ->
    List.fold_left (fun acc b -> list_bucket b.arrival acc (entries ~compare b)) [] (buckets t p)
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
let rec place ~compare (sent : int) msg = function
  | (s, m) :: tl when s > sent || (s = sent && compare_msg compare m msg >= 0) ->
    (s, m) :: place ~compare sent msg tl
  | entries -> (sent, msg) :: entries

let insert ~compare t p ~arrival ~sent msg =
  (match t.shares.(p) with
  | [] -> ()
  | _ :: _ -> invalid_arg "Backend.insert: a mailbox file filled");
  if Array.length t.buckets = 0 then t.buckets <- Array.make (Array.length t.shares) [];
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

(* Round [round]'s message set from [q]'s shares, latest round first:
   the round-[round] share's timely entries, if [q] holds one. *)
let rec current_share compare q (round : int) = function
  | (s : _ share) :: tl ->
    if s.filing.sent > round then current_share compare q round tl
    else if s.filing.sent = round then first_held compare q s.si s.sm s.filing.timely
    else []
  | [] -> []

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

(* [q]'s lockstep arrivals from after round [from] up to round [upto]
   as [(sent, msg)] pairs, in canonical order. *)
let held_fresh q ~from ~upto ss = List.map (fun (_, s, m) -> (s, m)) (held q ~from ~upto ss)

(* The inbox of the buckets [ready], latest first. *)
let bucket_inbox ~compare ~round = function
  | [] -> { Intf.current = []; fresh = Lazy.from_val [] }
  | b :: older ->
    let latest = entries ~compare b in
    (* Arrivals never precede sends (every backend clamps [arrival >=
       sent]), so round-[round] messages can only sit in bucket
       [round]. *)
    let current = if b.arrival = round then current_of ~compare ~round latest else [] in
    {
      Intf.current;
      fresh =
        lazy
          (List.fold_left
             (fun fresh b -> List.rev_append (entries ~compare b) fresh)
             (List.rev latest) older);
    }

(* Drained buckets have left the mailbox, and neither buckets nor
   filings change once built: [fresh] reads the same whenever it is forced, even
   while a copy still holds them. *)
let take ~compare t p ~round =
  let from = t.taken.(p) in
  t.taken.(p) <- Int.max from round;
  match t.shares.(p) with
  | [] ->
    let bs = buckets t p in
    let ready = ready_from round bs in
    (match ready with [] -> () | _ :: _ -> t.buckets.(p) <- until ready bs);
    bucket_inbox ~compare ~round ready
  | ss ->
    let ss' = pending round ss in
    if ss' != ss then t.shares.(p) <- ss';
    (* Only the round-[round] filing holds round-[round] messages, among
       its timely entries. *)
    {
      Intf.current = (if from >= round then [] else current_share compare p round ss);
      fresh = lazy (held_fresh p ~from ~upto:round ss);
    }

let peek ~compare t p ~arrival ~sent =
  let rec from_sent = function (s, _) :: tl when s > sent -> from_sent tl | es -> es in
  match t.shares.(p) with
  | [] -> (
    let bs = buckets t p in
    match find_bucket arrival bs with
    | Some b ->
      let entries = entries ~compare b in
      if not b.sorted then t.buckets.(p) <- set_bucket { b with sorted = true; entries } bs;
      current_of ~compare ~round:sent (from_sent entries)
    | None -> [])
  | _ :: _ -> invalid_arg "Backend.peek: a mailbox file filled"

(* The round's broadcasts, each with its groups. *)
let rec with_groups (outgoing : _ Dispatch.outbound list) groups =
  match (outgoing, groups) with
  | [], [] -> []
  | o :: os, (s, gs) :: tl when o.sender = s ->
    let rest = with_groups os tl in
    (o, gs) :: rest
  | _ -> invalid_arg "Backend.file: groups must list the senders of outgoing"

(* Filing order: ascending message, equal messages by descending
   sender, the order [fresh] reads them. *)
let order compare ((o1 : _ Dispatch.outbound), _) ((o2 : _ Dispatch.outbound), _) =
  match compare_msg compare o1.msg o2.msg with 0 -> Int.compare o2.sender o1.sender | c -> c

(* [List.stable_sort (order compare)], comparison for comparison, with
   [compare] an argument: [List.stable_sort] builds its helper closures
   and result pairs on every call, and [order compare] one more, which
   came to 26 of an n=3 round's 313 words. The elements after the first
   [n] of [l] are passed over, not paired with the result. *)
let rec chop k l = if k = 0 then l else match l with _ :: tl -> chop (k - 1) tl | [] -> l

let rec rev_merge compare l1 l2 acc =
  match (l1, l2) with
  | [], l2 -> List.rev_append l2 acc
  | l1, [] -> List.rev_append l1 acc
  | h1 :: t1, h2 :: t2 ->
    if order compare h1 h2 <= 0 then rev_merge compare t1 l2 (h1 :: acc)
    else rev_merge compare l1 t2 (h2 :: acc)

let rec rev_merge_rev compare l1 l2 acc =
  match (l1, l2) with
  | [], l2 -> List.rev_append l2 acc
  | l1, [] -> List.rev_append l1 acc
  | h1 :: t1, h2 :: t2 ->
    if order compare h1 h2 > 0 then rev_merge_rev compare t1 l2 (h1 :: acc)
    else rev_merge_rev compare l1 t2 (h2 :: acc)

let rec sort compare n l =
  match (n, l) with
  | 2, x1 :: x2 :: _ -> if order compare x1 x2 <= 0 then [ x1; x2 ] else [ x2; x1 ]
  | 3, x1 :: x2 :: x3 :: _ ->
    if order compare x1 x2 <= 0 then
      if order compare x2 x3 <= 0 then [ x1; x2; x3 ]
      else if order compare x1 x3 <= 0 then [ x1; x3; x2 ]
      else [ x3; x1; x2 ]
    else if order compare x1 x3 <= 0 then [ x2; x1; x3 ]
    else if order compare x2 x3 <= 0 then [ x2; x3; x1 ]
    else [ x3; x2; x1 ]
  | n, l ->
    let n1 = n asr 1 in
    let s1 = rev_sort compare n1 l in
    let s2 = rev_sort compare (n - n1) (chop n1 l) in
    rev_merge_rev compare s1 s2 []

and rev_sort compare n l =
  match (n, l) with
  | 2, x1 :: x2 :: _ -> if order compare x1 x2 > 0 then [ x1; x2 ] else [ x2; x1 ]
  | 3, x1 :: x2 :: x3 :: _ ->
    if order compare x1 x2 > 0 then
      if order compare x2 x3 > 0 then [ x1; x2; x3 ]
      else if order compare x1 x3 > 0 then [ x1; x3; x2 ]
      else [ x3; x1; x2 ]
    else if order compare x1 x3 > 0 then [ x2; x1; x3 ]
    else if order compare x2 x3 > 0 then [ x2; x3; x1 ]
    else [ x3; x2; x1 ]
  | n, l ->
    let n1 = n asr 1 in
    let s1 = sort compare n1 l in
    let s2 = sort compare (n - n1) (chop n1 l) in
    rev_merge compare s1 s2 []

let sorted compare l =
  match l with [] | [ _ ] -> l | _ -> sort compare (List.length l) l

let add_share t q (s : _ share) =
  (match buckets t q with
  | [] -> ()
  | _ :: _ -> invalid_arg "Backend.file: a mailbox insert filled");
  if t.taken.(q) >= s.filing.sent then invalid_arg "Backend.file: round already taken";
  t.shares.(q) <- s :: t.shares.(q)

(* Every broadcast in filing order, indexed from [next]: its
   self-delivery, which the sender's share holds, then its groups, each
   a loud entry that joins [timely] or [late]; the filing takes the two
   lists once they are complete. *)
let rec fill t f next timely late = function
  | [] ->
    f.timely <- timely;
    f.late <- late
  | ({ Dispatch.sender; msg }, gs) :: tl ->
    if sender < Array.length t.shares then add_share t sender { filing = f; si = next; sm = msg };
    fill_groups t f (next + 1) timely late ~sender msg gs tl

and fill_groups t f next timely late ~sender msg gs tl =
  match gs with
  | [] -> fill t f next timely late tl
  | (g : Adversary.group) :: gs ->
    let e = { index = next; sender; msg; group = g } in
    if g.arrival = f.sent then fill_groups t f (next + 1) (e :: timely) late ~sender msg gs tl
    else begin
      if g.arrival > f.last then f.last <- g.arrival;
      fill_groups t f (next + 1) timely (e :: late) ~sender msg gs tl
    end

let rec union u = function [] -> u | e :: tl -> union (Pidset.union u e.group.receivers) tl

(* Whether [q] holds a share of filing [f], which is then its latest. *)
let holds t f q = match t.shares.(q) with s :: _ -> s.filing == f | [] -> false

let rec without t f q = if q < Array.length t.shares && holds t f q then without t f (q + 1) else q

let rec share_from t f named s q =
  if q < Array.length t.shares then begin
    if Pidset.mem q named && not (holds t f q) then add_share t q s;
    share_from t f named s (q + 1)
  end

(* Every receiver the filing names that holds no share of it (every
   receiver but the senders) gets one, one record for all. The named
   receivers are gathered only when some process holds no share. *)
let share t f =
  match (f.timely, f.late) with
  | [], [] -> ()
  | (e :: _, _ | [], e :: _) ->
    let q = without t f 0 in
    if q < Array.length t.shares then
      share_from t f (union (union Pidset.empty f.timely) f.late) { filing = f; si = -1; sm = e.msg } q

let file ~compare t ~sent outgoing groups =
  match with_groups outgoing groups with
  | [] -> ()
  | broadcasts ->
    let f = { sent; timely = []; late = []; last = sent } in
    fill t f 0 [] [] (sorted compare broadcasts);
    share t f
