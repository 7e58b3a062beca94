(** Fuzz cases: one sampled configuration of algorithm, system size,
    environment, crash schedule, workload, and fault plan — everything a
    run needs, serializable to JSON so a counterexample can be written out
    and replayed bit-for-bit (all randomness derives from [seed]). *)

type algo = Es | Ess | Weak_set | Register

val algo_name : algo -> string
val all_algos : algo list

type schedule = {
  sched_env : Anon_giraf.Env.t;
      (** The environment the recorded plans claim to satisfy (becomes the
          trace's environment, so the checker judges them against it). *)
  plans : Anon_giraf.Adversary.plan list;  (** Plan for round [k] at index [k-1]. *)
}
(** An explicit, fully deterministic delivery schedule — how model-checker
    witnesses replay through the ordinary runners (via
    {!Anon_giraf.Adversary.of_schedule}). *)

type t = {
  algo : algo;
  n : int;
  gst : int;  (** Used by [Es]/[Ess]; carried (and ignored) otherwise. *)
  rotation : Anon_giraf.Adversary.rotation;
  noise : float;
  horizon : int;
  seed : int;
  crashes : Anon_giraf.Crash.event list;
  churn : Anon_giraf.Churn.event list;
      (** Join/leave schedule, disjoint from [crashes] by construction
          ([sample]) and validated on use by the runners. *)
  env : Anon_giraf.Env.t option;
      (** Environment override. Only [Dynamic] overrides are sampled and
          honored (they swap the base adversary for
          {!Anon_giraf.Adversary.dynamic}); [None] keeps the classic
          algo-derived adversary. *)
  ops_per_client : int;  (** Workload size for [Weak_set]/[Register]. *)
  faults : Fault.spec;
  schedule : schedule option;
      (** When present, replaces the sampled adversary entirely; the
          [Weak_set] workload then comes from {!mc_workload} instead of the
          seed-derived random one. *)
}

val sample :
  ?algo:algo -> ?inadmissible:bool -> ?dynamic:bool -> ?churn:bool ->
  Anon_kernel.Rng.t -> t
(** A random case; [algo] pins the algorithm, [inadmissible] (default
    [false]) attaches a deliberately model-violating fault mode (and keeps
    [n >= 3] with at least two correct processes so the violation is
    actually forceable). [dynamic] (default [false]) samples a rooted
    dynamic-graph environment override with stability >= 2 (the admissible
    regime); with [inadmissible] it arms {!Fault.Root_starvation} or
    {!Fault.Stability_break} instead of the classic modes. [churn] (default
    [false]) samples 1–2 churn events disjoint from the crash schedule,
    keeping at least one correct stayer. For consensus algorithms the
    events are {e permanent leaves} (no rejoin — behaviourally a silent
    crash, which is provably safe); rejoiners are sampled only for
    [Weak_set], the join-tolerant service. A rejoiner restarts with an
    empty PROPOSED set, which can legitimately split agreement between
    stayers — see the committed [repros/churn-rejoin-split.json]
    counterexample and DESIGN.md section 12. Neither flag applies to
    [Register] cases (whose checker assumes stable crash-free clients). *)

val adversary : t -> Anon_giraf.Adversary.t
(** The case's base adversary ([es]/[ess]/[ms] per [algo]) wrapped with its
    fault plan via {!Fault.wrap}. *)

val crash : t -> Anon_giraf.Crash.t

val churn : t -> Anon_giraf.Churn.t
(** The case's churn schedule as a validated {!Anon_giraf.Churn.t}
    ({!Anon_giraf.Churn.none}-equivalent when the [churn] field is empty). *)

val inputs : n:int -> seed:int -> Anon_kernel.Value.t list
(** The consensus input assignment of a case of [n] processes: values
    [1..n], shuffled by [seed] — the single derivation shared by the
    fuzzer and the model checker so their runs agree. *)

val mc_workload : n:int -> ops_per_client:int -> Anon_giraf.Runner.Ws.workload
(** The deterministic weak-set workload used with explicit schedules: each
    client alternates adds of distinct values ([100*(pid+1) + i]) with
    gets, queued from round 1 on. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Anon_obs.Json.t
(** Current schema (["v"]: 2): v2 added the optional ["env"] override and
    the ["churn"] schedule. *)

val of_json : Anon_obs.Json.t -> (t, string) result
(** Reads v2 documents and, for compatibility with repro files written
    before the version field existed, unversioned v1 documents (decoded
    with [env = None], [churn = \[\]]). Newer versions are rejected, and
    so is a case no sampler could write: an [env] or [schedule.env] that
    {!Anon_giraf.Env.validate} rejects, [n < 1], crash or churn events
    that {!Anon_giraf.Crash.check_events} or
    {!Anon_giraf.Churn.check_events} refuses, churn events on a
    [Register] case (its runner takes no churn schedule),
    [ops_per_client < 0], [noise] outside [[0, 1]], or a pinned rotation
    outside [[0, n)]. *)
