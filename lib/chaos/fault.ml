open Anon_kernel
module Adv = Anon_giraf.Adversary
module Crash = Anon_giraf.Crash
module Env = Anon_giraf.Env

type inadmissible =
  | Drop_obligated of { from_round : int }
  | Unstable_source of { from_round : int }
  | Root_starvation of { from_round : int }
  | Stability_break of { from_round : int }

type spec = {
  duplicate : float;
  extra_delay : float;
  max_extra : int;
  reorder : float;
  inadmissible : inadmissible option;
}

let none =
  { duplicate = 0.; extra_delay = 0.; max_extra = 2; reorder = 0.; inadmissible = None }

let is_noop s =
  s.duplicate <= 0. && s.extra_delay <= 0. && s.reorder <= 0. && s.inadmissible = None

let validate spec =
  let fail = Anon_giraf.Config_error.fail ~where:"Fault" in
  let prob name p =
    if Float.is_nan p then fail (Printf.sprintf "%s probability is NaN" name);
    if p < 0. || p > 1. then
      fail (Printf.sprintf "%s probability %g outside [0, 1]" name p)
  in
  prob "duplicate" spec.duplicate;
  prob "extra_delay" spec.extra_delay;
  prob "reorder" spec.reorder;
  if spec.max_extra < 0 then
    fail (Printf.sprintf "max_extra must be >= 0 (got %d)" spec.max_extra)

let sample ?(inadmissible = None) rng =
  {
    duplicate = (if Rng.chance rng 0.6 then Rng.float rng 0.3 else 0.);
    extra_delay = (if Rng.chance rng 0.6 then Rng.float rng 0.4 else 0.);
    max_extra = Rng.int_in rng 1 4;
    reorder = (if Rng.chance rng 0.6 then Rng.float rng 0.5 else 0.);
    inadmissible;
  }

(* [reached info] of a sender: itself plus its timely receivers this round. *)
let covers ~obligated ~round sender ds =
  let timely =
    List.filter_map
      (fun (d : Adv.delivery) -> if d.arrival = round then Some d.receiver else None)
      ds
  in
  let reached = sender :: timely in
  List.for_all (fun q -> List.mem q reached) obligated

(* Delay the delivery to the smallest obligated receiver <> sender, undoing
   the sender's timely coverage. [None] when the sender only covers itself. *)
let degrade ~obligated ~round sender ds =
  match List.filter (fun q -> q <> sender) obligated with
  | [] -> None
  | q :: _ ->
    Some
      (List.map
         (fun (d : Adv.delivery) ->
           if d.receiver = q && d.arrival = round then { d with arrival = round + 1 }
           else d)
         ds)

(* Degrade every sender that covers the obligated receivers, so no source
   remains. *)
let demote_covering ~obligated ~round (plan : Adv.plan) =
  let deliveries =
    List.map
      (fun (s, ds) ->
        if covers ~obligated ~round s ds then
          (s, Option.value ~default:ds (degrade ~obligated ~round s ds))
        else (s, ds))
      plan.deliveries
  in
  { plan with deliveries }

(* Force [sender] timely to every obligated receiver. *)
let promote ~obligated ~round ds =
  List.map
    (fun (d : Adv.delivery) ->
      if List.mem d.receiver obligated then { d with arrival = round } else d)
    ds

let wrap spec adv =
  validate spec;
  if is_noop spec then adv
  else begin
    let env = Adv.env adv in
    let dynamic = match env with Env.Dynamic _ -> true | _ -> false in
    let inject (ctx : Adv.ctx) rng (plan : Adv.plan) =
      let k = ctx.round in
      (* Admissible layers: never touch a timely arrival, so every
         obligation of the inner schedule survives. *)
      let delay_late ds =
        if spec.extra_delay <= 0. then ds
        else
          List.map
            (fun (d : Adv.delivery) ->
              if d.arrival > k && Rng.chance rng spec.extra_delay then
                { d with arrival = d.arrival + Rng.int_in rng 1 (max 1 spec.max_extra) }
              else d)
            ds
      in
      let reorder_late ds =
        if spec.reorder <= 0. || not (Rng.chance rng spec.reorder) then ds
        else
          let late, timely =
            List.partition (fun (d : Adv.delivery) -> d.arrival > k) ds
          in
          match late with
          | [] | [ _ ] -> ds
          | _ ->
            let arrivals =
              Rng.shuffle rng (List.map (fun (d : Adv.delivery) -> d.arrival) late)
            in
            timely
            @ List.map2 (fun (d : Adv.delivery) arrival -> { d with arrival }) late arrivals
      in
      let duplicate_some ds =
        if spec.duplicate <= 0. then ds
        else
          List.concat_map
            (fun (d : Adv.delivery) ->
              if Rng.chance rng spec.duplicate then
                let echo = max d.arrival k + Rng.int_in rng 1 (max 1 spec.max_extra) in
                [ d; { d with arrival = echo } ]
              else [ d ])
            ds
      in
      let deliveries =
        List.map
          (fun (s, ds) -> (s, duplicate_some (reorder_late (delay_late ds))))
          plan.Adv.deliveries
      in
      let plan = { plan with Adv.deliveries } in
      (* Inadmissible layer last, so no admissible echo can restore a
         timeliness we just took away (echoes are always late anyway). *)
      match spec.inadmissible with
      | Some (Drop_obligated { from_round }) when k >= from_round ->
        demote_covering ~obligated:ctx.obligated ~round:k plan
      | Some (Unstable_source { from_round }) when k >= from_round -> (
        match List.filter (fun s -> List.mem s ctx.correct) ctx.senders with
        | [] | [ _ ] -> plan (* cannot alternate without two correct senders *)
        | s0 :: s1 :: _ ->
          let keep = if k mod 2 = 0 then s0 else s1 in
          (* Blocking shape (cf. [Adversary.ess_blocking]): only [keep] is
             timely, every other link one round late. Each round has a
             covering source (MS holds) but the alternation keeps the
             algorithm from deciding, so enough demanding rounds survive
             past [gst] for the stability check to see both parities. *)
          let deliveries =
            List.map
              (fun (s, ds) ->
                if s = keep then (s, promote ~obligated:ctx.obligated ~round:k ds)
                else
                  ( s,
                    List.map
                      (fun (d : Adv.delivery) ->
                        if d.arrival = k then { d with arrival = k + 1 } else d)
                      ds ))
              plan.Adv.deliveries
          in
          { source = Some keep; deliveries })
      | Some (Root_starvation { from_round })
        when k >= from_round && dynamic && Env.owes env ~round:k = Env.A_source ->
        (* Dynamic rounds that owe a source (rooted pulses) only: demote
           every covering sender, so no root reaches all obligated
           receivers. Healed rounds are left intact — the resulting trace
           violates exactly the root-reachability obligation. *)
        demote_covering ~obligated:ctx.obligated ~round:k plan
      | Some (Stability_break { from_round })
        when k >= from_round && dynamic && Env.owes env ~round:k = Env.Every_sender ->
        (* Dynamic rounds that owe every sender (healed rounds) only: make
           one correct sender late to one obligated receiver, breaking the
           stability-window promise while leaving pulse rounds intact. *)
        let broken = ref false in
        let deliveries =
          List.map
            (fun (s, ds) ->
              if (not !broken) && List.mem s ctx.correct then
                match degrade ~obligated:ctx.obligated ~round:k s ds with
                | Some ds' ->
                  broken := true;
                  (s, ds')
                | None -> (s, ds)
              else (s, ds))
            plan.Adv.deliveries
        in
        { plan with Adv.deliveries }
      | Some _ | None -> plan
    in
    Adv.map_plan ~rename:(fun n -> n ^ "+faults") inject adv
  end

(* --- crash-schedule shapes ------------------------------------------------- *)

let distinct_pids ~n ~count rng =
  if count < 0 || count > n then
    invalid_arg (Printf.sprintf "Fault: %d failures among %d processes" count n);
  let pids = Rng.shuffle rng (List.init n Fun.id) in
  List.filteri (fun i _ -> i < count) pids

let random_broadcast rng =
  match Rng.int_in rng 0 2 with
  | 0 -> Crash.Silent
  | 1 -> Crash.Broadcast_all
  | _ -> Crash.Broadcast_subset

let burst_crashes ~n ~failures ~at ~width rng =
  if at < 1 then invalid_arg "Fault.burst_crashes: at must be >= 1";
  if width < 0 then invalid_arg "Fault.burst_crashes: width must be >= 0";
  List.map
    (fun pid ->
      {
        Crash.pid;
        round = Rng.int_in rng at (at + width);
        broadcast = random_broadcast rng;
      })
    (distinct_pids ~n ~count:failures rng)

let cascade_crashes ~n ~failures ~start ~gap rng =
  if start < 1 then invalid_arg "Fault.cascade_crashes: start must be >= 1";
  if gap < 1 then invalid_arg "Fault.cascade_crashes: gap must be >= 1";
  List.mapi
    (fun i pid ->
      { Crash.pid; round = start + (i * gap); broadcast = random_broadcast rng })
    (distinct_pids ~n ~count:failures rng)
