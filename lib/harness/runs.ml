open Anon_kernel
module G = Anon_giraf

type batch = {
  runs : int;
  decided : int;
  decision_rounds : int list;
  env_violations : int;
  agreement_violations : int;
  validity_violations : int;
  messages : int list;
  metrics : Anon_obs.Metrics.snapshot option;
}

let mean_decision b =
  match b.decision_rounds with
  | [] -> None
  | rs -> Some (Stats.mean (List.map float_of_int rs))

let safety_violations b = b.agreement_violations + b.validity_violations

let note_of_snapshot snap =
    let c name =
      Option.value ~default:0 (List.assoc_opt name snap.Anon_obs.Metrics.counters)
    in
    let broadcasts = c Anon_obs.Name.broadcasts in
    let deliveries = c Anon_obs.Name.deliveries in
    let timely = c Anon_obs.Name.timely_deliveries in
    let hits = c "kernel.history.intern_hits" in
    let misses = c "kernel.history.intern_misses" in
    let timely_pct =
      if deliveries = 0 then 0.
      else 100. *. float_of_int timely /. float_of_int deliveries
    in
    let hit_pct =
      if hits + misses = 0 then 0.
      else 100. *. float_of_int hits /. float_of_int (hits + misses)
    in
    Printf.sprintf
      "metrics: %d broadcasts, %d deliveries (%.1f%% timely), history \
       interning %.1f%% hits (%d/%d)"
      broadcasts deliveries timely_pct hit_pct hits (hits + misses)

let metrics_note b = Option.map note_of_snapshot b.metrics

let seeds ?(base = 1000) n =
  if n < 0 then
    G.Config_error.fail ~where:"Runs.seeds" (Printf.sprintf "runs must be >= 0 (got %d)" n);
  List.init n (fun i -> base + (7919 * i))

let distinct_inputs ~n rng = Rng.shuffle rng (List.init n (fun i -> i + 1))

(* What one seeded run contributes to a batch: plain data computed inside
   the run's own interner scope — no interned state leaves it. *)
type run_result = {
  r_decided : bool;
  r_decision_round : int option;
  r_env : int;
  r_agreement : int;
  r_validity : int;
  r_messages : int;
  r_snapshot : Anon_obs.Metrics.snapshot option;
}

module Of (A : G.Intf.ALGORITHM) = struct
  module R = G.Runner.Make (A)

  let one_run ~horizon ~metrics ~inputs ~crash ~adversary seed =
    let rng = Rng.make seed in
    let inputs = inputs (Rng.split rng) in
    let crash = crash (Rng.split rng) in
    let adversary = adversary (Rng.split rng) in
    let config = G.Runner.default_config ~horizon ~seed ~inputs ~crash adversary in
    let recorder =
      if metrics then
        Anon_obs.Recorder.create ~metrics:(Anon_obs.Metrics.create ()) ()
      else Anon_obs.Recorder.off
    in
    let outcome = R.run ~recorder config in
    let env = G.Checker.check_env outcome.trace in
    let cons = G.Checker.check_consensus ~expect_termination:false outcome.trace in
    let count p l = List.length (List.filter p l) in
    {
      r_decided = outcome.all_correct_decided;
      r_decision_round = G.Runner.decision_round outcome;
      r_env = List.length env;
      r_agreement =
        count (function G.Checker.Agreement_violation _ -> true | _ -> false) cons;
      r_validity =
        count (function G.Checker.Validity_violation _ -> true | _ -> false) cons;
      r_messages = outcome.messages_sent;
      r_snapshot =
        (if metrics then
           Some (Anon_obs.Metrics.snapshot (Anon_obs.Recorder.metrics recorder))
         else None);
    }

  let batch ?(horizon = 300) ?(metrics = false) ~inputs ~crash ~adversary
      ~seeds () =
    let results =
      List.map
        (Anon_exec.Pool.isolate (one_run ~horizon ~metrics ~inputs ~crash ~adversary))
        seeds
    in
    let merged =
      if metrics then
        Some (Anon_obs.Metrics.merge (List.filter_map (fun r -> r.r_snapshot) results))
      else None
    in
    List.fold_left
      (fun acc r ->
        {
          runs = acc.runs + 1;
          decided = (acc.decided + if r.r_decided then 1 else 0);
          decision_rounds =
            (match r.r_decision_round with
            | Some round -> round :: acc.decision_rounds
            | None -> acc.decision_rounds);
          env_violations = acc.env_violations + r.r_env;
          agreement_violations = acc.agreement_violations + r.r_agreement;
          validity_violations = acc.validity_violations + r.r_validity;
          messages = r.r_messages :: acc.messages;
          metrics = acc.metrics;
        })
      {
        runs = 0;
        decided = 0;
        decision_rounds = [];
        env_violations = 0;
        agreement_violations = 0;
        validity_violations = 0;
        messages = [];
        metrics = merged;
      }
      results
end
