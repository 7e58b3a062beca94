(** The open-loop load driver: a {!Workload} fanned out over sharded
    {!Rsm} log partitions.

    Shards are independent logs (disjoint proposal subsets, own seeds and
    fault schedules), so they run as {!Anon_exec.Pool} tasks. The shard
    count is a {e workload} parameter; [jobs] only chooses how many
    domains execute the fixed shard list, and {!Pool.map}'s
    submission-order results plus {!Anon_obs.Hist.merge}'s commutativity
    make the report — percentiles included — byte-identical at any
    [jobs] (DESIGN.md §14 has the argument). No command passes [jobs]:
    it stays, with the re-emission of commits below, only because the
    benchmark's [load-rsm] workload runs a sweep on two domains, and goes
    with the next change to the benchmark (DESIGN.md §9).

    Decide latency is measured in {e rounds} per proposal, open-loop
    (queue wait included): [decided_round - arrival + 1]. Round-based
    latency and [decided / rounds] throughput are what the deterministic
    report carries; wall-clock rates ([wall_s], [rsm.decide_latency_us])
    are observability-only and never enter the report JSON. *)

type shard_report = {
  shard : int;
  proposals : int;
  decided : int;  (** Proposals whose instance decided. *)
  committed : int;  (** Proposals in the contiguous committed prefix. *)
  instances : int;
  stalled : int;
  rounds : int;
  broadcasts : int;
  instance_msgs : int;
  agreement_ok : bool;
  validity_ok : bool;
}

type report = {
  algo : string;
  env : string;  (** Environment label, e.g. ["es:5"]. *)
  n : int;
  window : int;
  batch : int;
  horizon : int;
  workload : Workload.t;
  shards : shard_report list;  (** Ascending shard id. *)
  decided : int;
  committed : int;
  stalled : int;  (** Stalled instances, summed over shards. *)
  rounds : int;  (** Max over shards — shards run concurrently. *)
  broadcasts : int;
  instance_msgs : int;
  throughput : float;  (** [decided / rounds] (proposals per round). *)
  mean_rounds : float;  (** Mean decide latency (rounds); [0.] if none decided. *)
  p50_rounds : float;
  p99_rounds : float;
  p999_rounds : float;
  agreement_ok : bool;
  validity_ok : bool;
  wall_s : float;  (** Wall-clock duration — excluded from {!to_json}. *)
  metrics : Anon_obs.Metrics.snapshot option;
      (** Merged per-shard [rsm.*] snapshots when run with [~metrics:true];
          excluded from {!to_json} (wall-clock histograms inside). *)
}

val to_json : report -> Anon_obs.Json.t
(** Deterministic report document (schema ["anon-load/1"]): pure function
    of the workload and configuration — byte-identical at any [jobs]. *)

val render : Format.formatter -> report -> unit
(** Human-readable summary (includes the wall-clock rate). *)

val shard_seed : workload:Workload.t -> shard:int -> int
(** The base seed shard [s]'s {!Rsm} runs at — exported for tests that
    replay one shard sequentially. *)

module Make (A : Anon_giraf.Intf.ALGORITHM) : sig
  val run :
    ?jobs:int ->
    ?metrics:bool ->
    ?recorder:Anon_obs.Recorder.t ->
    ?env:string ->
    ?crash:(shard:int -> Anon_giraf.Crash.t) ->
    ?churn:(shard:int -> Anon_giraf.Churn.t) ->
    n:int ->
    window:int ->
    batch:int ->
    horizon:int ->
    adversary:(shard:int -> instance:int -> Anon_giraf.Adversary.t) ->
    Workload.t ->
    report
  (** Run every shard to completion (or [horizon]) and aggregate.
      [recorder] is coordinator-side: it receives the pool's [exec.*]
      metrics, and — when its sink is live — the full
      {!Anon_obs.Event.Commit} stream, re-emitted after the run in
      global round order (shards return their commit sequences; worker
      domains never touch the coordinator sink), deterministic at any
      [jobs]. Per-shard [Rsm] metrics live in fresh worker registries
      and are merged into [report.metrics] when [metrics = true]
      (default false). [crash]/[churn] default to fault-free schedules.
      Validates the combined configuration through {!Rsm.validate}
      before any shard runs. *)
end
