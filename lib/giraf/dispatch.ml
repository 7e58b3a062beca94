open Anon_kernel

type 'msg outbound = { sender : int; msg : 'msg }

type entries = (int * Adversary.group list) list

type stats = {
  groups : entries;
  timely : (int * Pidset.t) list;
  delivered : int;
  timely_count : int;
}

(* One call's arguments and accumulators in one record, which the
   top-level helpers below take as their context. [cur] collects the
   current sender's timely receivers, which join [timely] as a single
   entry once the sender is done. *)
type run = {
  round : int;
  crashing_events : Crash.event list;
  eligible : Pidset.t;
  receivers : int list;
  crash_rng : Rng.t;
  mutable timely : (int * Pidset.t) list;
  mutable cur : Pidset.t;
  mutable delivered : int;
  mutable timely_count : int;
}

(* What a group that reaches nobody but its sender becomes. *)
let nobody = { Adversary.arrival = -1; receivers = Pidset.empty }

(* One group of [sender]'s broadcast as delivered: its arrival clamped
   to the round, its receivers those of the group that may receive (the
   sender stays a member if it was one), counted; [g] itself when
   neither changes. A timely group's receivers but the sender join the
   sender's timely ones. *)
let deliver r ~(sender : int) (g : Adversary.group) =
  let arrival = Int.max g.arrival r.round in
  let reached = Pidset.inter g.receivers r.eligible in
  let others = if arrival = r.round then Pidset.remove sender reached else reached in
  let count =
    Pidset.cardinal others - if others == reached && Pidset.mem sender reached then 1 else 0
  in
  if count = 0 then nobody
  else begin
    r.delivered <- r.delivered + count;
    if arrival = r.round then begin
      r.timely_count <- r.timely_count + count;
      r.cur <- (if Pidset.is_empty r.cur then others else Pidset.union r.cur others)
    end;
    if arrival = g.arrival && reached == g.receivers then g else { arrival; receivers = reached }
  end

(* A sender's groups as delivered, in order, those that reach nobody
   dropped; [gs] itself when nothing changed. *)
let rec deliver_groups r ~sender = function
  | [] -> []
  | g :: tl as gs ->
    let g' = deliver r ~sender g in
    let tl' = deliver_groups r ~sender tl in
    if g' == nobody then tl' else if g' == g && tl' == tl then gs else g' :: tl'

(* The crash event of [pid] and those after it, [] when it does not
   crash this round. *)
let rec crash_of (pid : int) = function
  | [] -> []
  | (ev : Crash.event) :: tl as evs -> if ev.pid = pid then evs else crash_of pid tl

(* An unscripted partial broadcast: each reached receiver's arrival
   drawn in turn, timely on a fair coin and 1 to 3 rounds late
   otherwise, then one group per arrival. *)
let drawn r reached =
  let arrivals =
    List.map
      (fun q -> (q, if Rng.bool r.crash_rng then 0 else Rng.int_in r.crash_rng 1 3))
      reached
  in
  List.filter_map
    (fun d ->
      match List.filter_map (fun (q, d') -> if d' = d then Some q else None) arrivals with
      | [] -> None
      | qs -> Some { Adversary.arrival = r.round + d; receivers = Pidset.of_list qs })
    [ 0; 1; 2; 3 ]

let crash_broadcast r ~sender (ev : Crash.event) ~scripted gs =
  match ev.broadcast with
  | Crash.Broadcast_subset when scripted ->
    (* A plan entry for a [Broadcast_subset] crasher pins the partial
       broadcast deterministically (model-checker witnesses replay the
       exact subset); without one the RNG picks as before. *)
    deliver_groups r ~sender gs
  | Crash.Silent | Crash.Broadcast_all | Crash.Broadcast_subset -> (
    let others = List.filter (fun q -> q <> sender) r.receivers in
    let reached = Crash.reach ev.broadcast r.crash_rng others in
    match ev.broadcast with
    | Crash.Broadcast_all ->
      (* Clean stop: the final broadcast reaches everyone timely
         (crash.mli). Drawing arrivals from [crash_rng] here used to let
         the last message slip past its own round, diverging from the
         model checker's reading. *)
      deliver_groups r ~sender [ { arrival = r.round; receivers = Pidset.of_list reached } ]
    | Crash.Silent | Crash.Broadcast_subset -> deliver_groups r ~sender (drawn r reached))

(* The plan's entries in ascending sender order, a sender's first entry
   ahead of its later ones. Every built-in adversary lists its senders
   in that order already, and then nothing is copied. *)
let rec ascending = function
  | ((p : int), _) :: ((q, _) :: _ as tl) -> p < q && ascending tl
  | [ _ ] | [] -> true

let in_sender_order (entries : entries) =
  if ascending entries then entries
  else List.stable_sort (fun (p, _) (q, _) -> Int.compare p q) entries

let rec skip_to (s : int) = function (p, _) :: tl when p < s -> skip_to s tl | es -> es
let rec skip_past (s : int) = function (p, _) :: tl when p = s -> skip_past s tl | es -> es

(* Walk the ascending [outgoing] and the plan in sender order together,
   listing each sender with the groups it reached (its plan entry itself
   when nothing changed): the entries of senders that broadcast nothing
   are passed over, and a sender's entries after its first. *)
let rec send r outgoing (plan : entries) =
  match outgoing with
  | [] -> []
  | { sender; _ } :: tl ->
    let plan = skip_to sender plan in
    let scripted, gs =
      match plan with (p, gs) :: _ when p = sender -> (true, gs) | _ -> (false, [])
    in
    let reached =
      match crash_of sender r.crashing_events with
      | ev :: _ -> crash_broadcast r ~sender ev ~scripted gs
      | [] -> deliver_groups r ~sender gs
    in
    if not (Pidset.is_empty r.cur) then begin
      r.timely <- (sender, r.cur) :: r.timely;
      r.cur <- Pidset.empty
    end;
    let entry =
      match plan with
      | ((p, gs) as e) :: _ when p = sender && reached == gs -> e
      | _ -> (sender, reached)
    in
    let rest = send r tl (skip_past sender plan) in
    entry :: rest

let dispatch ~round ~outgoing ~crashing_events ~eligible ~receivers ~plan ~crash_rng =
  let r =
    {
      round;
      crashing_events;
      eligible;
      receivers;
      crash_rng;
      timely = [];
      cur = Pidset.empty;
      delivered = 0;
      timely_count = 0;
    }
  in
  let groups = send r outgoing (in_sender_order plan.Adversary.groups) in
  { groups; timely = r.timely; delivered = r.delivered; timely_count = r.timely_count }
