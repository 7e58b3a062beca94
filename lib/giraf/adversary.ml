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

let receivers_of ctx sender = List.filter (fun q -> q <> sender) ctx.alive

(* [List.mem] on pids, without its polymorphic comparison. *)
let rec mem (p : int) = function [] -> false | q :: tl -> q = p || mem p tl

(* Every alive process as a receiver at [arrival]: a round's deliveries
   are built once, not once per sender. *)
let to_alive ctx ~arrival = List.map (fun q -> { receiver = q; arrival }) ctx.alive

(* [ds] without its deliveries to [p]: the entries before [p]'s last one
   are copied, less [p]'s, and the suffix after it is shared, so each
   sender's row of a round costs O(1) words per link and equals mapping
   [receivers_of ctx p]. One scan finds that entry; the copy is a loop
   (tail-mod-cons), not a recursion as deep as the prefix. *)
let without p ds =
  let rec last_at i last = function
    | [] -> last
    | d :: tl -> last_at (i + 1) (if d.receiver = p then i else last) tl
  in
  let[@tail_mod_cons] rec copy k = function
    | [] -> []
    | d :: tl ->
      if k = 0 then tl else if d.receiver = p then copy (k - 1) tl else d :: copy (k - 1) tl
  in
  match last_at 0 (-1) ds with -1 -> ds | k -> copy k ds

let timely_all ctx =
  let all = to_alive ctx ~arrival:ctx.round in
  let deliveries = List.map (fun p -> (p, without p all)) ctx.senders in
  let source = match ctx.senders with [] -> None | s :: _ -> Some s in
  { source; deliveries }

let late_arrival ctx rng max_delay = ctx.round + Rng.int_in rng 1 (max 1 max_delay)

(* Source candidates must be correct (so they survive the round) and
   actually broadcasting this round. *)
let source_candidates ctx =
  List.filter (fun p -> mem p ctx.correct) ctx.senders

let pick_source ~rotation ctx rng =
  match source_candidates ctx with
  | [] -> None
  | candidates ->
    (match rotation with
    | Round_robin -> Some (List.nth candidates (ctx.round mod List.length candidates))
    | Random_source -> Some (Rng.pick rng candidates)
    | Pinned p -> if mem p candidates then Some p else Some (List.hd candidates))

(* One round of "minimal + noise" schedule: [source] (if any) is timely to
   all obligated receivers; every other (sender, receiver) link is timely
   with probability [noise], late otherwise. *)
let noisy_round ~source ~noise ~max_delay ctx rng =
  let deliveries =
    List.map
      (fun p ->
        let is_source = match source with Some s -> s = p | None -> false in
        let plan_receiver q =
          let must_be_timely = is_source && mem q ctx.obligated in
          let arrival =
            if must_be_timely || Rng.chance rng noise then ctx.round
            else late_arrival ctx rng max_delay
          in
          { receiver = q; arrival }
        in
        (p, List.map plan_receiver (receivers_of ctx p)))
      ctx.senders
  in
  { source; deliveries }

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

(* Pre-GST schedule that provably stalls Alg. 2: two camps, the source
   alternating between the two smallest correct senders by round parity,
   all other links exactly one round late. Each camp's champion keeps
   seeing its own value written while the other value stays in PROPOSED, so
   the decide guard never fires. *)
let blocking_round ctx =
  let candidates = source_candidates ctx in
  let source =
    match candidates with
    | [] -> None
    | [ s ] -> Some s
    | s0 :: s1 :: _ -> Some (if ctx.round mod 2 = 1 then s0 else s1)
  in
  let late = to_alive ctx ~arrival:(ctx.round + 1) in
  let source_plan q =
    let arrival = if mem q ctx.obligated then ctx.round else ctx.round + 1 in
    { receiver = q; arrival }
  in
  let deliveries =
    List.map
      (fun p ->
        match source with
        | Some s when s = p -> (p, List.map source_plan (receivers_of ctx p))
        | Some _ | None -> (p, without p late))
      ctx.senders
  in
  { source; deliveries }

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
