(** Top-level bounded model checking: crash-schedule enumeration, per-
    schedule exploration, aggregation, verdicts, and witness emission.

    Crash schedules are enumerated {e outside} the per-schedule exploration
    (every subset of at most [crashes] processes, each with a crash round in
    [1..rounds] and [Broadcast_subset] behaviour — the partial-broadcast
    fates are then branched by {!Anon_giraf.Plan_enum}, which subsumes the
    clean-stop and silent kinds). Fixing the schedule per exploration keeps
    the static correct set, and hence the environment obligations, exactly
    what the runners and the checker use on replay. *)

type algo =
  | Es  (** Alg. 2 under its ES environment (or any [env] you pass). *)
  | Ess  (** Alg. 3. *)
  | Ms_weakset  (** Alg. 4 as a service (weak-set axioms). *)
  | Es_unguarded
      (** Ablation ([Es_consensus.No_written_old_guard]). Exploration shows
          it stays safe on {e admissible} schedules at small [n] —
          complementing experiment A2, where the agreement split needs the
          literal-§2.3 schedule the strengthened checker rejects. No
          chaos-replay witness exists for this variant. *)

val algo_name : algo -> string

type search = Bfs | Dfs

type config = {
  algo : algo;
  n : int;
  env : Anon_giraf.Env.t;
  rounds : int;  (** Depth bound (adversary plan choices per branch). *)
  crashes : int;  (** Max number of crashing processes. *)
  churn : int;
      (** Max number of churning (join/leave) processes; schedules are
          enumerated like crashes (leave round in [1..rounds], rejoin in
          [(leave, rounds]] or never) and crossed with the crash schedules
          under pid-disjointness. Rejected for {!Ms_weakset}. *)
  max_delay : int;  (** Late arrivals span round+1 .. round+max_delay; [>= 1]. *)
  search : search;
  armed : bool;  (** Include one inadmissible plan per demanding round. *)
  jobs : int option;
      (** [None] or [Some 1]; any other value is refused. It stays only
          because the benchmark's [mc-es] workload sets it, and is removed
          with the next change to the benchmark. *)
  seed : int;  (** Input-assignment seed (shared with {!Anon_chaos.Scenario.inputs}). *)
  ops_per_client : int;  (** [Ms_weakset] workload size. *)
}

type verdict =
  | Violation  (** A safety/environment violation was found. *)
  | Verified
      (** Every branch of every schedule reached a terminal state within
          the bound: exhaustive up to the crash budget and plan
          granularity. *)
  | Bounded
      (** No violation, but some branches were cut by the depth bound
          (e.g. a non-deciding run under an MS-only environment). *)

val verdict_name : verdict -> string

type report = {
  config : config;
  schedules : int;  (** Crash x churn schedules explored. *)
  stats : Explore.stats;  (** Summed over schedules. *)
  violation :
    (Anon_giraf.Crash.event list * Anon_giraf.Churn.event list * Explore.witness)
    option;
  non_deciding :
    (Anon_giraf.Crash.event list * Anon_giraf.Churn.event list * Explore.bounded)
    option;
  witness : Witness.t option;
      (** Replay-validated packaging of [violation] (or, failing that, of
          [non_deciding]); [None] for {!Es_unguarded}. *)
  verdict : verdict;
}

val reduction_factor : report -> float
(** [raw_states / canonical_states] — the symmetry-reduction payoff. *)

val run :
  ?recorder:Anon_obs.Recorder.t ->
  ?progress:Format.formatter ->
  config ->
  report
(** Explore schedules in order, stopping at the first violating one.
    {!Witness.to_json} renders the report's witness as a repro file.
    Emits [mc.*] metrics through [recorder], and only those: the
    witness replay (when any) shares [recorder]'s sink, so a
    {!Anon_obs.Trace.chrome} sink captures the counterexample timeline.
    [progress] (e.g. [Format.err_formatter] under [anonc mc --progress])
    prints one live line per crash schedule and per BFS level — frontier
    depth, canonical states/sec, dedup hit-rate.

    @raise Anon_giraf.Config_error.Invalid_config (where ["Mc.run"]) when
    [n < 1], [rounds < 1], [crashes] or [churn] is outside [[0, n]],
    [churn > 0] for {!Ms_weakset}, [max_delay < 1],
    [ops_per_client < 0], [jobs] other than [None] or [Some 1], or an
    [env] {!Anon_giraf.Env.validate} rejects (GST below 1). *)

val pp_report : Format.formatter -> report -> unit
