(** Execution engine for weak-set services (Alg. 4 semantics).

    Processes run rounds forever (services never decide); clients — one per
    process — invoke [add]/[get] operations between rounds, sequentially
    per process. The run produces operation records on a global logical
    clock suitable for [Checker.check_weak_set]:

    - computes of round [k-1] (where pending [add]s complete) happen at
      time [2k];
    - operations invoked while a process is in round [k] happen at time
      [2k + 1]. *)

type op_spec = Step_core.op_spec =
  | Do_add of Anon_kernel.Value.t
  | Do_get
  | Do_add_with of (Anon_kernel.Value.Set.t -> Anon_kernel.Value.t)
      (** Add a value computed from the client's current [get] view at
          invocation time (used by layered objects such as the register of
          Prop. 1, whose writes read the set first). *)

type workload = Step_core.workload
(** Per pid: [(earliest_round, op)] scripts. Operations run in list order,
    each starting no earlier than its round and only after the previous
    operation of the same client completed. *)

val random_workload :
  n:int ->
  ops_per_client:int ->
  max_start:int ->
  value_range:int ->
  Anon_kernel.Rng.t ->
  workload
(** Mixed add/get scripts with distinct add values across all clients (so
    that semantic checking is exact).
    @raise Config_error.Invalid_config when [ops_per_client < 0]. *)

type config = {
  n : int;
  crash : Crash.t;
  churn : Churn.t;
      (** Join/leave schedule ({!Churn.none} for static membership). A
          leaver's pending add is recorded incomplete; a rejoiner restarts
          with a fresh replica and empty mailbox, its remaining client
          script intact. *)
  adversary : Adversary.t;
  horizon : int;
  seed : int;
}

type add_record = {
  client : int;
  value : Anon_kernel.Value.t;
  invoked_round : int;
  completed_round : int option;
}

type outcome = {
  trace : Trace.t;
  ops : Checker.ws_op list;  (** Chronological. *)
  adds : add_record list;  (** Add latencies (T5, [anonc weakset]). *)
  rounds_executed : int;
  messages_sent : int;
}

module Make (S : Intf.SERVICE) : sig
  val run :
    ?observe:(pid:int -> round:int -> S.state -> unit) ->
    ?recorder:Anon_obs.Recorder.t ->
    config -> workload:workload -> outcome
  (** [observe] is called after every [compute] (and after [initialize])
      with the post-state, once any pending [add] completion has been
      detected — the same instant the model checker's node states are
      defined at. It must not mutate the state.

      [recorder] (default {!Anon_obs.Recorder.off}) receives weak-set
      operation events ([Ws_add]/[Ws_add_done]/[Ws_get]) alongside the
      generic delivery/crash stream, plus [service.*] and [phase.*]
      metrics; see DESIGN.md §7.

      @raise Config_error.Invalid_config on [n < 1], [horizon < 1], a
      crash or churn schedule sized for a different [n], a pid that
      both crashes and churns, or an environment {!Env.validate}
      rejects. *)
end
