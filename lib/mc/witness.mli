(** Counterexample emission: model-checker witnesses as chaos repro files.

    A witness (a plan prefix plus the exploration's crash schedule) is
    packaged as a {!Anon_chaos.Scenario.t} with an explicit [schedule], so
    the ordinary fuzz replay path ([anonc fuzz --replay]) re-executes it
    through {!Anon_giraf.Runner.Make} / {!Anon_giraf.Runner.Ws.Make} and the
    independent {!Anon_giraf.Checker}. The scenario is replayed {e at
    emission time} and the violations the replay actually produces are the
    ones stored in the file — replay determinism is therefore validated
    before the file exists, and [--replay] always reports a match. *)

type t = {
  case : Anon_chaos.Scenario.t;
  replay_violations : Anon_giraf.Checker.violation list;
      (** What {!Anon_chaos.Fuzz.run_case} reports for [case] — the
          end-to-end confirmation (may include a trailing termination
          violation the online judges don't track, or, for a bounded
          witness, consist of it entirely). *)
}

val build :
  ?recorder:Anon_obs.Recorder.t ->
  algo:Anon_chaos.Scenario.algo ->
  env:Anon_giraf.Env.t ->
  n:int ->
  seed:int ->
  ops_per_client:int ->
  crashes:Anon_giraf.Crash.event list ->
  ?churn:Anon_giraf.Churn.event list ->
  plans:Anon_giraf.Adversary.plan list ->
  unit ->
  t
(** Package and immediately re-execute. [horizon = length plans + 1]: the
    recorded plans drive rounds [1..k] and the round past the prefix falls
    back to fully-timely, which is enough for the runner to perform the
    compute phase in which the violation (or the blocked progress)
    manifests. [recorder] observes the replay — give it a
    {!Anon_obs.Trace.chrome} sink to capture the counterexample's causal
    timeline. *)

val confirmed : t -> bool
(** The replay exhibits at least one checker violation. *)

val to_json : t -> Anon_obs.Json.t
(** The repro JSON ({!Anon_chaos.Fuzz.repro_json} format) that
    [anonc fuzz --replay] reads. *)
