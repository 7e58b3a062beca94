module G = Anon_giraf
module Scenario = Anon_chaos.Scenario
module Fuzz = Anon_chaos.Fuzz

type t = {
  case : Scenario.t;
  replay_violations : G.Checker.violation list;
}

let build ?recorder ~algo ~env ~n ~seed ~ops_per_client ~crashes ?(churn = [])
    ~plans () =
  let case =
    {
      Scenario.algo;
      n;
      gst = Option.value ~default:0 (G.Env.gst env);
      rotation = G.Adversary.Round_robin;
      noise = 0.;
      horizon = List.length plans + 1;
      seed;
      crashes;
      churn;
      (* The explicit schedule replaces the adversary wholesale; its
         [sched_env] already carries the (possibly dynamic) environment. *)
      env = None;
      ops_per_client;
      faults = Anon_chaos.Fault.none;
      schedule = Some { Scenario.sched_env = env; plans };
    }
  in
  { case; replay_violations = Fuzz.run_case ?recorder case }

let confirmed t = t.replay_violations <> []

let to_json t =
  Fuzz.repro_json
    {
      Fuzz.original = t.case;
      original_violations = t.replay_violations;
      case = t.case;
      violations = t.replay_violations;
      explored = 0;
    }
