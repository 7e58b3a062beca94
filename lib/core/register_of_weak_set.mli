(** Proposition 1 — a regular multi-writer multi-reader register layered on
    a weak-set.

    A write reads the weak-set, counts its content (the proof stores the
    whole content and compares lengths; the cardinality is the only part
    used) and adds the pair [(value, rank)]; a read returns the value of
    the lexicographically maximal [(rank, value)] pair. Non-overlapping
    writes get strictly increasing ranks, so a read with no concurrent
    write returns the last value written.

    Pairs are packed into weak-set elements arithmetically; values must lie
    in [\[0, value_capacity)]. *)

val value_capacity : int
(** Exclusive upper bound on register values (2^20). *)

val encode : value:Anon_kernel.Value.t -> rank:int -> Anon_kernel.Value.t
val decode : Anon_kernel.Value.t -> Anon_kernel.Value.t * int
(** [decode e] is [(value, rank)]. *)

val read_of_set : Anon_kernel.Value.Set.t -> Anon_kernel.Value.t option
(** The register-read view of a weak-set content: the value of the maximal
    [(rank, value)] pair, [None] on the never-written register. *)

val rank_of_set : Anon_kernel.Value.Set.t -> int
(** The rank a write starting now would pick: the set's cardinality. *)

(** Register operations, their schedule, and the run record. *)
type op = Write of Anon_kernel.Value.t | Read

type record = {
  client : int;
  op : op;
  invoked : int;  (** Logical clock of the underlying run. *)
  completed : int option;  (** [None] if still pending at run end. *)
  result : Anon_kernel.Value.t option;  (** For completed reads. *)
  rank : int option;  (** For writes: the rank the write chose. *)
}

type outcome = {
  records : record list;
  ws_ops : Anon_giraf.Checker.ws_op list;  (** Underlying weak-set trace. *)
  trace : Anon_giraf.Trace.t;
}

val workload :
  n:int -> ops_per_client:int -> Anon_kernel.Rng.t -> (int * (int * op) list) list
(** T6's and the fuzzer's workload: per client, [ops_per_client]
    operations at uniform rounds in [\[1, 60\]], writes of [100 * pid + i]
    where [i + pid] is even and reads elsewhere, in start order. *)

val run :
  crash:Anon_giraf.Crash.t ->
  adversary:Anon_giraf.Adversary.t ->
  horizon:int ->
  seed:int ->
  workload:(int * (int * op) list) list ->
  outcome
(** Execute register operations over the MS weak-set (Alg. 4). Workload
    entries are [(pid, (earliest_round, op) list)]; operations run in order,
    one at a time per client. *)

val check_regular : record list -> Anon_giraf.Checker.violation list
(** Regular-register semantics with max-resolution of concurrent writes: a
    completed read must return either the strongest (max [(rank, value)])
    write completed before it started, or a value being written
    concurrently. *)
