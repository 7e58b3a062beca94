(* The dispatch-backend seam: the mailbox semantics both backends share.
   See backend.mli. *)

(* One arrival round's entries, kept in reverse canonical order: the
   entry [fresh] lists last comes first. Filing a canonically-next entry
   is then one cons, and a bucket's current-round messages (the largest
   sent round it can hold) sit at its front. Only the [Round] filing
   that made a bucket (its [generation]) conses onto it in place; every
   other change builds a new bucket, so copies can share buckets.
   Generation 0 marks a bucket {!insert} filled: its entries are newest
   first and unsorted until a reader sorts them. [peek] keeps the sorted
   entries as generation -1, and [insert] files into such a bucket in
   order. *)
type 'msg bucket = { arrival : int; generation : int; mutable entries : (int * 'msg) list }

(* A process's buckets in descending arrival order. A lockstep round
   files most of its deliveries into the latest bucket, the head; the
   ready buckets are a suffix, already in the order [take] folds them. *)
type 'msg t = 'msg bucket list array

let create ~n = Array.make n []
let copy = Array.copy
let clear t p = t.(p) <- []
let length t p = List.fold_left (fun acc b -> acc + List.length b.entries) 0 t.(p)

(* [acc] behind a bucket's entries as [(arrival, sent, msg)] triples, in
   canonical order. *)
let rec list_bucket arrival acc = function
  | [] -> acc
  | (sent, m) :: tl -> list_bucket arrival ((arrival, sent, m) :: acc) tl

(* Same-object messages compare equal without walking the structure — a
   broadcast shares one message value across its receivers. *)
let compare_msg compare m1 m2 = if m1 == m2 then 0 else compare m1 m2

(* A bucket's entries in reverse canonical order. A stable sort of
   [insert]'s newest-first list keeps equal entries newest first, the
   order [fresh] reads them. *)
let entries ~compare b =
  if b.generation <> 0 then b.entries
  else
    List.rev
      (List.stable_sort
         (fun (s1, m1) (s2, m2) ->
           match Int.compare s1 s2 with 0 -> compare_msg compare m1 m2 | c -> c)
         b.entries)

let to_list ~compare t p =
  List.fold_left (fun acc b -> list_bucket b.arrival acc (entries ~compare b)) [] t.(p)

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
  let b =
    match find_bucket arrival t.(p) with
    | Some ({ generation = -1; _ } as b) -> { b with entries = place ~compare sent msg b.entries }
    | Some b -> { arrival; generation = 0; entries = (sent, msg) :: b.entries }
    | None -> { arrival; generation = 0; entries = [ (sent, msg) ] }
  in
  t.(p) <- set_bucket b t.(p)

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

(* The buckets at or before [round]: a suffix. *)
let rec ready_from round = function
  | b :: tl when b.arrival > round -> ready_from round tl
  | ready -> ready

(* The buckets before the suffix [ready]. *)
let rec until ready = function
  | bs when bs == ready -> []
  | b :: tl -> b :: until ready tl
  | [] -> []

let take ~compare t p ~round =
  let ready = ready_from round t.(p) in
  t.(p) <- until ready t.(p);
  match ready with
  | [] -> ([], Lazy.from_val [])
  | b :: older ->
    let latest = entries ~compare b in
    (* Arrivals never precede sends (every backend clamps [arrival >=
       sent]), so round-[round] messages can only sit in bucket [round]. *)
    let current = if b.arrival = round then current_of ~compare ~round latest else [] in
    (* The drained buckets have left [p]'s mailbox. A copy may still
       hold them, but only the filing of a bucket's own generation
       conses onto it, and that filing is over: [fresh] reads the same
       whenever it is forced. *)
    ( current,
      lazy
        (List.fold_left
           (fun fresh b -> List.rev_append (entries ~compare b) fresh)
           (List.rev latest) older) )

let peek ~compare t p ~arrival ~sent =
  let rec from_sent = function (s, _) :: tl when s > sent -> from_sent tl | es -> es in
  match find_bucket arrival t.(p) with
  | Some b ->
    let entries = entries ~compare b in
    if b.generation = 0 then t.(p) <- set_bucket { b with generation = -1; entries } t.(p);
    current_of ~compare ~round:sent (from_sent entries)
  | None -> []

module Round = struct
  (* Deliveries are recorded in dispatch order — sender by sender — as
     [(receiver, arrival)] int pairs packed into [deliveries]; [groups]
     holds each sender's first delivery and its shared [(sent, msg)]
     entry, the latest sender first. *)
  type 'msg boxes = 'msg t

  type 'msg t = {
    mutable generation : int;  (* one per [reset]; buckets made by [insert] have 0 *)
    mutable sent : int;
    mutable groups : (int * (int * 'msg)) list;
    mutable last_pid : int;
    mutable deliveries : int array;
    mutable ndeliveries : int;
  }

  let create ~n =
    {
      generation = 0;
      sent = 0;
      groups = [];
      last_pid = -1;
      deliveries = Array.make (8 * n) 0;
      ndeliveries = 0;
    }

  let reset r ~sent =
    r.generation <- r.generation + 1;
    r.sent <- sent;
    r.groups <- [];
    r.last_pid <- -1;
    r.ndeliveries <- 0

  let deliver r ~sender ~receiver ~arrival msg =
    let d = r.ndeliveries in
    if sender <> r.last_pid then begin
      r.groups <- (d, (r.sent, msg)) :: r.groups;
      r.last_pid <- sender
    end;
    if 2 * d = Array.length r.deliveries then begin
      let a = Array.make ((4 * d) + 2) 0 in
      Array.blit r.deliveries 0 a 0 (2 * d);
      r.deliveries <- a
    end;
    r.deliveries.(2 * d) <- receiver;
    r.deliveries.((2 * d) + 1) <- arrival;
    r.ndeliveries <- d + 1

  (* Each sender's deliveries [\[first, last)] and entry, in filing
     order: ascending message, equal messages latest sender first
     (descending pid in lockstep) — the order [fresh] reads them. *)
  let ordered ~compare r =
    let rec spans last acc = function
      | [] -> acc
      | (first, e) :: earlier -> spans first ((first, last, e) :: acc) earlier
    in
    List.sort
      (fun (f1, _, (_, m1)) (f2, _, (_, m2)) ->
        match compare_msg compare m1 m2 with 0 -> Int.compare f2 f1 | c -> c)
      (spans r.ndeliveries [] r.groups)

  (* Receiver [q]'s bucket for [arrival] as this filing may extend it:
     one it made, or a new one that starts from the old one's entries. *)
  let bucket r (boxes : 'msg boxes) q arrival =
    match find_bucket arrival boxes.(q) with
    | Some b when b.generation = r.generation -> b
    | old ->
      let entries = match old with Some b -> b.entries | None -> [] in
      let b = { arrival; generation = r.generation; entries } in
      boxes.(q) <- set_bucket b boxes.(q);
      b

  let file ~compare r (boxes : 'msg boxes) =
    let deliveries = r.deliveries and generation = r.generation in
    let rec go = function
      | [] -> ()
      | (first, last, e) :: later ->
        for d = first to last - 1 do
          let q = deliveries.(2 * d) and arrival = deliveries.((2 * d) + 1) in
          let b =
            match boxes.(q) with
            | b :: _ when b.arrival = arrival && b.generation = generation -> b
            | _ -> bucket r boxes q arrival
          in
          b.entries <- e :: b.entries
        done;
        go later
    in
    go (ordered ~compare r)
end
