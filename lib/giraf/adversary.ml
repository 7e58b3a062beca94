open Anon_kernel

type ctx = {
  round : int;
  senders : int list;
  obligated : int list;
  correct : int list;
  alive : int list;
}

type delivery = { receiver : int; arrival : int }
type plan = { source : int option; deliveries : (int * delivery list) list }

type t = {
  name : string;
  env : Env.t;
  plan : ctx -> Rng.t -> plan;
}

let name t = t.name
let env t = t.env
let plan t = t.plan

type rotation = Round_robin | Random_source | Pinned of int

(* [List.mem] on pids, without its polymorphic comparison. *)
let rec mem (p : int) = function [] -> false | q :: tl -> q = p || mem p tl

(* Every alive process as a receiver at [arrival]: a round's deliveries
   are built once, not once per sender. *)
let[@tail_mod_cons] rec at_arrival arrival = function
  | [] -> []
  | q :: tl -> { receiver = q; arrival } :: at_arrival arrival tl

let to_alive ctx ~arrival = at_arrival arrival ctx.alive

(* [ds] without its deliveries to [p]: the entries before [p]'s last one
   are copied, less [p]'s, and the suffix after it is shared, so each
   sender's row of a round costs O(1) words per link and equals mapping
   [ctx.alive] less [p]. One scan finds that entry; the copy is a loop
   (tail-mod-cons), not a recursion as deep as the prefix. *)
let rec last_to (p : int) i last = function
  | [] -> last
  | d :: tl -> last_to p (i + 1) (if d.receiver = p then i else last) tl

let[@tail_mod_cons] rec copy_without (p : int) k = function
  | [] -> []
  | d :: tl ->
    if k = 0 then tl
    else if d.receiver = p then copy_without p (k - 1) tl
    else d :: copy_without p (k - 1) tl

let without p ds = match last_to p 0 (-1) ds with -1 -> ds | k -> copy_without p k ds

(* Each sender's row: [ds] without its own entries. *)
let[@tail_mod_cons] rec rows_without ds = function
  | [] -> []
  | p :: tl -> (p, without p ds) :: rows_without ds tl

let timely_all ctx =
  let deliveries = rows_without (to_alive ctx ~arrival:ctx.round) ctx.senders in
  let source = match ctx.senders with [] -> None | s :: _ -> Some s in
  { source; deliveries }

let late_arrival ctx rng max_delay = ctx.round + Rng.int_in rng 1 (Int.max 1 max_delay)

(* Source candidates must be correct (so they survive the round) and
   actually broadcasting this round: how many senders are, and the
   [i]-th of them, without building their list. *)
let rec count_candidates ctx count = function
  | [] -> count
  | p :: tl -> count_candidates ctx (if mem p ctx.correct then count + 1 else count) tl

let rec nth_candidate ctx i = function
  | [] -> invalid_arg "Adversary.nth_candidate"
  | p :: tl ->
    if not (mem p ctx.correct) then nth_candidate ctx i tl
    else if i = 0 then p
    else nth_candidate ctx (i - 1) tl

(* [Rng.pick] over the candidates draws [Rng.int] over their count, as
   [Random_source] does here. *)
let pick_source ~rotation ctx rng =
  match count_candidates ctx 0 ctx.senders with
  | 0 -> None
  | count -> (
    match rotation with
    | Pinned p when mem p ctx.correct && mem p ctx.senders -> Some p
    | Pinned _ -> Some (nth_candidate ctx 0 ctx.senders)
    | Round_robin -> Some (nth_candidate ctx (ctx.round mod count) ctx.senders)
    | Random_source -> Some (nth_candidate ctx (Rng.int rng count) ctx.senders))

(* Sender [p]'s row of a noisy round: every alive receiver but [p], in
   [ctx.alive] order, each drawn in turn. *)
let[@tail_mod_cons] rec noisy_row ~is_source ~noise ~max_delay ctx rng (p : int) = function
  | [] -> []
  | q :: tl ->
    if q = p then noisy_row ~is_source ~noise ~max_delay ctx rng p tl
    else
      let must_be_timely = is_source && mem q ctx.obligated in
      let arrival =
        if must_be_timely || Rng.chance rng noise then ctx.round
        else late_arrival ctx rng max_delay
      in
      { receiver = q; arrival } :: noisy_row ~is_source ~noise ~max_delay ctx rng p tl

let[@tail_mod_cons] rec noisy_rows ~source ~noise ~max_delay ctx rng = function
  | [] -> []
  | p :: tl ->
    let is_source = match source with Some s -> s = p | None -> false in
    let row = noisy_row ~is_source ~noise ~max_delay ctx rng p ctx.alive in
    (p, row) :: noisy_rows ~source ~noise ~max_delay ctx rng tl

(* One round of "minimal + noise" schedule: [source] (if any) is timely to
   all obligated receivers; every other (sender, receiver) link is timely
   with probability [noise], late otherwise. *)
let noisy_round ~source ~noise ~max_delay ctx rng =
  { source; deliveries = noisy_rows ~source ~noise ~max_delay ctx rng ctx.senders }

let sync () = { name = "sync"; env = Env.Sync; plan = (fun ctx _rng -> timely_all ctx) }

let ms ?(rotation = Round_robin) ?(noise = 0.0) ?(max_delay = 3) () =
  let plan ctx rng =
    let source = pick_source ~rotation ctx rng in
    noisy_round ~source ~noise ~max_delay ctx rng
  in
  { name = "ms"; env = Env.Ms; plan }

let es ~gst ?(noise = 0.0) ?(max_delay = 3) () =
  let plan ctx rng =
    if ctx.round >= gst then timely_all ctx
    else
      let source = pick_source ~rotation:Round_robin ctx rng in
      noisy_round ~source ~noise ~max_delay ctx rng
  in
  { name = "es"; env = Env.Es { gst }; plan }

let ess ~gst ?source ?(rotation = Round_robin) ?(noise = 0.0) ?(max_delay = 3) () =
  let plan ctx rng =
    let stable =
      match source with
      | Some p -> Pinned p
      | None -> (match ctx.correct with [] -> Round_robin | p :: _ -> Pinned p)
    in
    let rotation = if ctx.round >= gst then stable else rotation in
    let source = pick_source ~rotation ctx rng in
    noisy_round ~source ~noise ~max_delay ctx rng
  in
  { name = "ess"; env = Env.Ess { gst }; plan }

(* The blocking source's row: timely to every obligated receiver, one
   round late to the others. *)
let[@tail_mod_cons] rec source_row ctx (s : int) = function
  | [] -> []
  | q :: tl ->
    if q = s then source_row ctx s tl
    else
      let arrival = if mem q ctx.obligated then ctx.round else ctx.round + 1 in
      { receiver = q; arrival } :: source_row ctx s tl

let[@tail_mod_cons] rec blocking_rows ctx source late = function
  | [] -> []
  | p :: tl ->
    let row =
      match source with
      | Some s when s = p -> source_row ctx p ctx.alive
      | Some _ | None -> without p late
    in
    (p, row) :: blocking_rows ctx source late tl

(* Pre-GST schedule that provably stalls Alg. 2: two camps, the source
   alternating between the two smallest correct senders by round parity,
   all other links exactly one round late. Each camp's champion keeps
   seeing its own value written while the other value stays in PROPOSED, so
   the decide guard never fires. *)
let blocking_round ctx =
  let source =
    match count_candidates ctx 0 ctx.senders with
    | 0 -> None
    | 1 -> Some (nth_candidate ctx 0 ctx.senders)
    | _ -> Some (nth_candidate ctx (if ctx.round mod 2 = 1 then 0 else 1) ctx.senders)
  in
  let late = to_alive ctx ~arrival:(ctx.round + 1) in
  { source; deliveries = blocking_rows ctx source late ctx.senders }

let es_blocking ~gst () =
  let plan ctx _rng =
    if ctx.round >= gst then timely_all ctx else blocking_round ctx
  in
  { name = "es-blocking"; env = Env.Es { gst }; plan }

let ess_blocking ~gst ?source () =
  let plan ctx rng =
    if ctx.round >= gst then
      let rotation =
        match source with
        | Some p -> Pinned p
        | None -> (match ctx.correct with [] -> Round_robin | p :: _ -> Pinned p)
      in
      let source = pick_source ~rotation ctx rng in
      noisy_round ~source ~noise:0.0 ~max_delay:1 ctx rng
    else blocking_round ctx
  in
  { name = "ess-blocking"; env = Env.Ess { gst }; plan }

let dynamic ~stability ?(rooted = true) ?(rotation = Round_robin) ?(noise = 0.0)
    ?(max_delay = 3) () =
  if stability < 1 then invalid_arg "Adversary.dynamic: stability must be >= 1";
  let plan ctx rng =
    if not (Env.pulse ~stability ~round:ctx.round) then
      (* Healed remainder of the window: full synchrony. *)
      timely_all ctx
    else if rooted then
      (* Reconfiguration pulse: rewire to a minimal covering star around a
         rotating root, plus noise. *)
      let source = pick_source ~rotation ctx rng in
      noisy_round ~source ~noise ~max_delay ctx rng
    else noisy_round ~source:None ~noise ~max_delay ctx rng
  in
  {
    name = Printf.sprintf "dynamic(s=%d%s)" stability (if rooted then "" else ",unrooted");
    env = Env.Dynamic { stability; rooted };
    plan;
  }

let async ?(max_delay = 5) ?(timely_chance = 0.3) () =
  let plan ctx rng = noisy_round ~source:None ~noise:timely_chance ~max_delay ctx rng in
  { name = "async"; env = Env.Async; plan }

let scripted ~name ~env plan = { name; env; plan }

let of_schedule ?(name = "schedule") ~env plans =
  let plans = Array.of_list plans in
  let plan ctx _rng =
    if ctx.round >= 1 && ctx.round <= Array.length plans then
      plans.(ctx.round - 1)
    else timely_all ctx
  in
  { name; env; plan }

let map_plan ?(rename = Fun.id) f t =
  { t with name = rename t.name; plan = (fun ctx rng -> f ctx rng (t.plan ctx rng)) }
