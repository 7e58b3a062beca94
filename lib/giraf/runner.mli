(** The lockstep execution engine (Alg. 1 semantics), for both families
    of algorithms the paper runs on it: consensus (Alg. 2/3, {!Make}) and
    the weak-set service (Alg. 4, {!Ws}). One round loop drives both.

    The runner is lockstep in structure — iteration [k] runs every live
    process's [k]-th end-of-round (computing round [k-1] and broadcasting
    the round-[k] message) — but deliveries are fully adversarial: a
    round-[k] message reaches each receiver either timely (consumed by the
    receiver's [compute] of round [k]) or at an adversary-chosen later
    round. A consensus process that decides halts immediately and
    broadcasts nothing further; a weak-set process never decides and
    serves client operations between rounds. *)

type config = {
  inputs : Anon_kernel.Value.t array;  (** One proposal per process; defines [n]. *)
  crash : Crash.t;
  churn : Churn.t;
      (** Join/leave schedule ({!Churn.none} for a static membership). An
          away process takes no steps, receives nothing, and loses its
          mailbox; a rejoiner restarts from [initialize] on its original
          input. Halted (decided) processes ignore their churn event. *)
  adversary : Adversary.t;
  horizon : int;  (** Maximum number of rounds to simulate. *)
  seed : int;
  stop_on_decision : bool;
      (** Stop as soon as every correct stayer has decided (default
          behaviour of [default_config]). *)
}

val default_config :
  ?horizon:int -> ?stop_on_decision:bool -> ?seed:int -> ?churn:Churn.t ->
  inputs:Anon_kernel.Value.t list -> crash:Crash.t -> Adversary.t -> config
(** [horizon] defaults to 200 rounds, [seed] to 42, [churn] to
    {!Churn.none}.

    @raise Config_error.Invalid_config on empty [inputs], [horizon < 1],
    an inputs/crash or inputs/churn size mismatch, a pid that both
    crashes and churns, or an adversary environment {!Env.validate}
    rejects (GST below 1). [run] re-validates, so directly constructed
    configs are rejected too. *)

type outcome = {
  trace : Trace.t;
  decisions : (int * int * Anon_kernel.Value.t) list;
      (** [(pid, round, value)], chronological. *)
  all_correct_decided : bool;  (** Every correct stayer decided. *)
  rounds_executed : int;
  messages_sent : int;  (** Broadcast invocations. *)
  deliveries : int;  (** Point-to-point deliveries (excluding self). *)
  timely_deliveries : int;
}

val decision_round : outcome -> int option
(** Round by which the {e last} correct process decided, if all did. *)

module Make (A : Intf.ALGORITHM) : sig
  val run :
    ?observe:(pid:int -> round:int -> A.state -> unit) ->
    ?recorder:Anon_obs.Recorder.t ->
    config -> outcome
  (** Simulate. [observe] is called after every [compute] with the
      post-state (for algorithm-specific instrumentation such as
      pseudo-leader tracking); it must not mutate the state.

      [recorder] (default {!Anon_obs.Recorder.off}) receives the full
      event stream (round/broadcast/deliver/decide/crash/leader) and the
      [run.*], [churn.*], [phase.*] and [kernel.*] metrics; see DESIGN.md
      §7. *)
end

(** Weak-set runs (Alg. 4 semantics).

    Processes run rounds until the horizon (services never decide);
    clients — one per process — invoke [add]/[get] operations between
    rounds, sequentially per process. The run produces operation records
    on a global logical clock suitable for [Checker.check_weak_set]:

    - computes of round [k-1] (where pending [add]s complete) happen at
      time [2k];
    - operations invoked while a process is in round [k] happen at time
      [2k + 1]. *)
module Ws : sig
  type op_spec = Step_core.op_spec =
    | Do_add of Anon_kernel.Value.t
    | Do_get
    | Do_add_with of (Anon_kernel.Value.Set.t -> Anon_kernel.Value.t)
        (** Add a value computed from the client's current [get] view at
            invocation time (used by layered objects such as the register
            of Prop. 1, whose writes read the set first). *)

  type workload = Step_core.workload
  (** Per pid: [(earliest_round, op)] scripts. Operations run in list
      order, each starting no earlier than its round and only after the
      previous operation of the same client completed. *)

  val random_workload :
    n:int -> ops_per_client:int -> max_start:int -> value_range:int ->
    Anon_kernel.Rng.t -> workload
  (** Mixed add/get scripts with distinct add values across all clients
      (so that semantic checking is exact).
      @raise Config_error.Invalid_config when [ops_per_client < 0]. *)

  type config = {
    n : int;
    crash : Crash.t;
    churn : Churn.t;
        (** Join/leave schedule ({!Churn.none} for static membership). A
            leaver's pending add is recorded incomplete; a rejoiner
            restarts with a fresh replica and empty mailbox, its remaining
            client script intact. *)
    adversary : Adversary.t;
    horizon : int;  (** Rounds to run; a weak-set run never stops early. *)
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
    (** The consensus loop with no decisions and a client-operation phase
        after each round's deliveries. [observe] is called after every
        [compute] (and after [initialize]) with the post-state, once any
        pending [add] completion has been detected — the same instant the
        model checker's node states are defined at. It must not mutate the
        state.

        [recorder] receives the consensus events and metrics but those of
        decisions and leaders ([Run_end] says [decided = false]), plus the
        [Ws_add]/[Ws_add_done]/[Ws_get] events and the [ws.*] metrics.

        @raise Config_error.Invalid_config as {!default_config} does,
        with [n < 1] for empty inputs. *)
  end
end
