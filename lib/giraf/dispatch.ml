open Anon_kernel

type 'msg outbound = { sender : int; msg : 'msg }

type stats = {
  timely : (int * int list) list;
  delivered : int;
  timely_count : int;
}

type entries = (int * Adversary.delivery list) list

(* One call's arguments and accumulators in one record, which the
   top-level helpers below take as their context: a call allocates this
   record and its [stats], and no ref or closure. [cur] collects the
   current sender's timely receivers (each sender's deliveries are
   contiguous, one outbound per sender), which join [timely] as a single
   entry once the sender is done. [cursor] and [index] find each
   sender's plan entry (see [entry]). *)
type 'msg run = {
  round : int;
  outgoing : 'msg outbound list;
  crashing_events : Crash.event list;
  eligible : int -> bool;
  receivers : unit -> int list;
  deliveries : entries;
  crash_rng : Rng.t;
  on_deliver : (sender:int -> receiver:int -> arrival:int -> unit) option;
  schedule : sender:int -> receiver:int -> arrival:int -> sent:int -> 'msg -> unit;
  mutable cursor : entries;
  mutable index : entries array option;
  mutable timely : (int * int list) list;
  mutable cur : int list;
  mutable delivered : int;
  mutable timely_count : int;
}

let deliver r ~(sender : int) msg ~(receiver : int) ~arrival =
  if receiver <> sender && r.eligible receiver then begin
    let arrival = Int.max arrival r.round in
    r.schedule ~sender ~receiver ~arrival ~sent:r.round msg;
    (match r.on_deliver with Some f -> f ~sender ~receiver ~arrival | None -> ());
    r.delivered <- r.delivered + 1;
    if arrival = r.round then begin
      r.timely_count <- r.timely_count + 1;
      r.cur <- receiver :: r.cur
    end
  end

let rec deliver_plan r ~sender msg = function
  | [] -> ()
  | (d : Adversary.delivery) :: tl ->
    deliver r ~sender msg ~receiver:d.receiver ~arrival:d.arrival;
    deliver_plan r ~sender msg tl

(* [deliveries] from each sender's first entry on, indexed by pid. Only
   outgoing senders are looked up, so the largest of them sizes the
   index. *)
let index_of outgoing deliveries =
  let rec largest m = function
    | [] -> m
    | { sender; _ } :: tl -> largest (Int.max m sender) tl
  in
  let a = Array.make (largest (-1) outgoing + 1) [] in
  let rec fill = function
    | [] -> ()
    | ((s, _) :: tl) as at ->
      if s >= 0 && s < Array.length a && a.(s) == [] then a.(s) <- at;
      fill tl
  in
  fill deliveries;
  a

(* The plan's entries from sender [s]'s first one on, [] when it has
   none; the first entry of a sender wins, as with [List.assoc_opt].
   Every built-in adversary lists its senders in the order of
   [outgoing], ascending pid, so the cursor walks the plan: while every
   lookup has found its entry at the cursor, the entries passed belong
   to earlier senders (one outbound each), and an entry of [s] at the
   cursor is its first. The first lookup that misses the cursor indexes
   the plan once, and the rest of the call reads the index. *)
let entry r (s : int) =
  match (r.index, r.cursor) with
  | None, ((p, _) :: tl as at) when p = s ->
    r.cursor <- tl;
    at
  | _ ->
    let index =
      match r.index with
      | Some index -> index
      | None ->
        let index = index_of r.outgoing r.deliveries in
        r.index <- Some index;
        index
    in
    if s >= 0 && s < Array.length index then index.(s) else []

(* The crash event of [pid] and those after it, [] when it does not
   crash this round. *)
let rec crash_of (pid : int) = function
  | [] -> []
  | (ev : Crash.event) :: tl as evs -> if ev.pid = pid then evs else crash_of pid tl

let rec deliver_timely r ~sender msg = function
  | [] -> ()
  | q :: tl ->
    deliver r ~sender msg ~receiver:q ~arrival:r.round;
    deliver_timely r ~sender msg tl

let rec deliver_drawn r ~sender msg = function
  | [] -> ()
  | q :: tl ->
    let arrival =
      if Rng.bool r.crash_rng then r.round else r.round + Rng.int_in r.crash_rng 1 3
    in
    deliver r ~sender msg ~receiver:q ~arrival;
    deliver_drawn r ~sender msg tl

let crash_broadcast r ~sender msg (ev : Crash.event) =
  let scripted =
    match ev.broadcast with
    | Crash.Broadcast_subset -> entry r sender
    | Crash.Silent | Crash.Broadcast_all -> []
  in
  match scripted with
  | (_, ds) :: _ ->
    (* A plan entry for a [Broadcast_subset] crasher pins the partial
       broadcast deterministically (model-checker witnesses replay the
       exact subset); without one the RNG picks as before. *)
    deliver_plan r ~sender msg ds
  | [] -> (
    let others = List.filter (fun q -> q <> sender) (r.receivers ()) in
    let reached = Crash.reach ev.broadcast r.crash_rng others in
    match ev.broadcast with
    | Crash.Broadcast_all ->
      (* Clean stop: the final broadcast reaches everyone timely
         (crash.mli). Drawing arrivals from [crash_rng] here used to let
         the last message slip past its own round, diverging from the
         model checker's reading. *)
      deliver_timely r ~sender msg reached
    | Crash.Silent | Crash.Broadcast_subset -> deliver_drawn r ~sender msg reached)

let rec send r = function
  | [] -> ()
  | { sender; msg } :: tl ->
    r.schedule ~sender ~receiver:sender ~arrival:r.round ~sent:r.round msg;
    (match crash_of sender r.crashing_events with
    | ev :: _ -> crash_broadcast r ~sender msg ev
    | [] -> (
      match entry r sender with (_, ds) :: _ -> deliver_plan r ~sender msg ds | [] -> ()));
    (match r.cur with
    | [] -> ()
    | cur ->
      r.timely <- (sender, cur) :: r.timely;
      r.cur <- []);
    send r tl

let dispatch ~round ~outgoing ~crashing_events ~eligible ~receivers ~plan ~crash_rng
    ?on_deliver ~schedule () =
  let r =
    {
      round;
      outgoing;
      crashing_events;
      eligible;
      receivers;
      deliveries = plan.Adversary.deliveries;
      crash_rng;
      on_deliver;
      schedule;
      cursor = plan.Adversary.deliveries;
      index = None;
      timely = [];
      cur = [];
      delivered = 0;
      timely_count = 0;
    }
  in
  send r outgoing;
  { timely = r.timely; delivered = r.delivered; timely_count = r.timely_count }
