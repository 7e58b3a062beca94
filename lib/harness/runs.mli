(** Shared run helpers for the experiment suite: execute a consensus
    algorithm over a batch of seeds and summarize decisions and checker
    verdicts. *)

type batch = {
  runs : int;
  decided : int;  (** Runs where every correct process decided. *)
  decision_rounds : int list;  (** Last correct decision round, per decided run. *)
  env_violations : int;
  agreement_violations : int;
  validity_violations : int;
  messages : int list;  (** Broadcasts per run. *)
  metrics : Anon_obs.Metrics.snapshot option;
      (** Merged per-run snapshots; [Some] iff the batch ran with
          [~metrics:true] (an empty snapshot over no runs). Counters are
          batch totals, histogram samples pool across runs. *)
}

val mean_decision : batch -> float option
val safety_violations : batch -> int

val note_of_snapshot : Anon_obs.Metrics.snapshot -> string
(** One-line instrumentation summary (broadcast/delivery/timeliness
    totals, history-interning hit rate) for table footnotes. Counts
    only, so the line is the same on every run at a seed. *)

val metrics_note : batch -> string option
(** [note_of_snapshot] over {!batch.metrics}; [None] when the batch
    carried no metrics. *)

module Of (A : Anon_giraf.Intf.ALGORITHM) : sig
  val batch :
    ?horizon:int ->
    ?metrics:bool ->
    inputs:(Anon_kernel.Rng.t -> Anon_kernel.Value.t list) ->
    crash:(Anon_kernel.Rng.t -> Anon_giraf.Crash.t) ->
    adversary:(Anon_kernel.Rng.t -> Anon_giraf.Adversary.t) ->
    seeds:int list ->
    unit ->
    batch
  (** One run per seed; [inputs]/[crash]/[adversary] are drawn from a
      seed-derived stream so batches are reproducible. [metrics] (default
      false) gives every run a fresh registry and merges the snapshots
      into {!batch.metrics}. Each run executes in its own interner scope
      ({!Anon_exec.Pool.isolate}), so a run's result does not depend on
      the runs before it. *)
end

val seeds : ?base:int -> int -> int list
(** [seeds n] is [n] distinct seeds.

    @raise Anon_giraf.Config_error.Invalid_config when [n < 0]. *)

val distinct_inputs : n:int -> Anon_kernel.Rng.t -> Anon_kernel.Value.t list
(** [n] distinct values in a small range, shuffled. *)
