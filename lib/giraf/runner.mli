(** Execution engine for consensus-style algorithms (Alg. 1 semantics).

    The runner is lockstep in structure — iteration [k] runs every live
    process's [k]-th end-of-round (computing round [k-1] and broadcasting
    the round-[k] message) — but deliveries are fully adversarial: a
    round-[k] message reaches each receiver either timely (consumed by the
    receiver's [compute] of round [k]) or at an adversary-chosen later
    round. A process that decides halts immediately and broadcasts nothing
    further. *)

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
      [runner.*], [phase.*] and [kernel.*] metrics; see DESIGN.md §7. *)
end
