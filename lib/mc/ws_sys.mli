(** The weak-set service (Alg. 4) as an explorable system: the weak-set
    family of {!System}.

    Mirrors {!Anon_giraf.Runner.Ws.Make} phase-shifted the same way as
    {!Consensus_sys}: a node is the system after the compute phase of
    iteration [k]; one step delivers the round-[k] messages per the plan,
    marks the crashers, runs the round-[k] client-operation phase (one
    operation per unblocked client, on the weak-set runner's logical clock:
    computes at [2k], operations at [2k + 1]), and computes iteration
    [k+1], detecting [add] completions. Each completed [get] is judged
    online against {!Anon_giraf.Checker.Weak_set}.

    The workload is {!Anon_chaos.Scenario.mc_workload} — deterministic and
    pid-pinned, so emitted witnesses replay through the chaos path
    unchanged. *)

type spec = {
  n : int;
  crash : Anon_giraf.Crash.t;
  env : Anon_giraf.Env.t;
  max_delay : int;
      (** Late-arrival horizon. Unlike the consensus algorithms, Alg. 4
          reads late messages (fresh inbox), so values above [1] genuinely
          enlarge the explored behaviour. *)
  armed : bool;
  ops_per_client : int;
}

val make : spec -> (module Explore.SYSTEM)
(** @raise Anon_giraf.Config_error.Invalid_config (see
    {!Anon_giraf.Churn.validate}) when [n < 1] or [crash] is sized for
    another [n]. *)

val make_probe : spec -> (module Explore.SYSTEM_DEBUG)
(** Same system with the pid-indexed {!Explore.SYSTEM_DEBUG.snapshot}
    rendering, for the runner-vs-checker differential test. *)
