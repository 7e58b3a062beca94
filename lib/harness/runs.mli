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
          [~metrics:true]. Counters are batch totals, histogram samples
          pool across runs. *)
}

val mean_decision : batch -> float option
val safety_violations : batch -> int

val note_of_snapshot : Anon_obs.Metrics.snapshot -> string
(** One-line instrumentation summary (broadcast/delivery/timeliness
    totals, history-interning hit rate, mean compute time) for table
    footnotes. *)

val metrics_note : batch -> string option
(** [note_of_snapshot] over {!batch.metrics}; [None] when the batch
    carried no metrics. *)

module Of (A : Anon_giraf.Intf.ALGORITHM) : sig
  val batch :
    ?horizon:int ->
    ?observe:(pid:int -> round:int -> A.state -> unit) ->
    ?metrics:bool ->
    ?jobs:int ->
    inputs:(Anon_kernel.Rng.t -> Anon_kernel.Value.t list) ->
    crash:(Anon_kernel.Rng.t -> Anon_giraf.Crash.t) ->
    adversary:(Anon_kernel.Rng.t -> Anon_giraf.Adversary.t) ->
    seeds:int list ->
    unit ->
    batch
  (** One run per seed; [inputs]/[crash]/[adversary] are drawn from a
      seed-derived stream so batches are reproducible. [metrics] (default
      false) gives every run a fresh registry and merges the snapshots
      into {!batch.metrics}.

      Runs execute through {!Anon_exec.Pool.map} — [jobs] as there
      (default [!Anon_exec.Pool.default_jobs]). Each run is a pool task
      in its own interner scope, so the batch — merged metrics included —
      is bit-identical for every [jobs] value. [observe], if given, is
      called from worker domains when [jobs > 1]; it must be
      thread-safe in that case. *)
end

val seeds : ?base:int -> int -> int list
(** [seeds n] is [n] distinct seeds.

    @raise Anon_giraf.Config_error.Invalid_config when [n < 0]. *)

val distinct_inputs : n:int -> Anon_kernel.Rng.t -> Anon_kernel.Value.t list
(** [n] distinct values in a small range, shuffled. *)
