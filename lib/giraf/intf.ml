(** Module signatures of the extended GIRAF framework (Alg. 1).

    The framework executes {e anonymous} round-based algorithms: a process
    automaton never observes process identifiers, only the round number and
    the {e set} of messages received — duplicates from distinct senders are
    indistinguishable and merged, exactly as in the paper's model. Simulator
    process ids exist only on the runner side (schedules, traces, metrics).

    Round numbering follows Alg. 1: the [k]-th [end-of-round] runs
    [compute] on round [k-1]'s mailbox (or [initialize] when [k = 1]) and
    broadcasts the round-[k] message. A message sent for round [k] is
    {e timely} towards [q] iff it is in [q]'s round-[k] mailbox when [q]
    computes round [k]. *)

type 'msg inbox = {
  current : 'msg list;
      (** The round-[k] message set [M_i\[k\]] at [compute (k, M_i)] time:
          deduplicated, sorted by the algorithm's message order, and always
          containing the process's own round-[k] message (Alg. 1 line 10). *)
  fresh : (int * 'msg) list Lazy.t;
      (** Every [(sent_round, msg)] arrival since the previous [compute],
          including late messages for earlier rounds and the process's own
          round-[k] message. Needed by algorithms that read
          [M_i\[k'\], 1 ≤ k' ≤ k_i] (Alg. 4 line 15); the others never
          force it, and the backends build it only when forced (see
          {!Backend.take}). Force it, if at all, inside the [compute] that
          receives it. *)
}

(** Consensus-style automaton: proposes a value at initialization and may
    decide (and halt) during a [compute]. *)
module type ALGORITHM = sig
  val name : string

  type state
  type msg

  val msg_compare : msg -> msg -> int
  (** Total order used to deduplicate message sets. Messages equal under
      [msg_compare] are the same message (anonymity). *)

  val msg_size : msg -> int
  (** Abstract payload size (number of values / history entries / counter
      entries carried), for message-growth metrics. *)

  val leader : state -> bool option
  (** Pseudo-leader introspection for instrumented runners: [Some flag]
      when the algorithm maintains a self-leader estimate (Alg. 3 line 15),
      [None] when it has no leader concept. Observability only — never
      consulted by the execution semantics. *)

  val initialize : Anon_kernel.Value.t -> state * msg
  (** [initialize v] is the process's first step (Alg. 1 line 7): its
      proposal is [v]; returns the round-1 message. *)

  val compute :
    state -> round:int -> inbox:msg inbox -> state * msg * Anon_kernel.Value.t option
  (** [compute st ~round ~inbox] is Alg. 1 line 9 for round [round];
      returns the next state, the round-[round+1] message, and [Some v] if
      the process decides [v] now. A deciding process halts: the returned
      message is {e not} broadcast and the process takes no further steps
      ("decide VAL; halt"). *)
end

(** Weak-set-style service automaton: no decision, but client operations
    [add]/[get] invoked between rounds (Alg. 4). *)
module type SERVICE = sig
  val name : string

  type state
  type msg

  val msg_compare : msg -> msg -> int
  val msg_size : msg -> int

  val initialize : unit -> state * msg

  val compute : state -> round:int -> inbox:msg inbox -> state * msg
  (** End-of-round transition; completion of a pending [add] is observed
      via [add_pending] flipping to [false]. *)

  val add : state -> Anon_kernel.Value.t -> state
  (** Start an [add]. Precondition: [not (add_pending st)] — the paper's
      automaton serves one blocking [add] at a time per process. *)

  val add_pending : state -> bool
  (** The [BLOCK] flag of Alg. 4: [true] while an [add] is in progress. *)

  val get : state -> Anon_kernel.Value.Set.t
  (** The non-blocking [get] (Alg. 4 lines 5–6). *)
end

(** Where a process stands in a run. Halted processes decided. Away
    processes are churners between their leave and rejoin rounds. *)
type fate = Live | Crashed | Halted | Away

(** The per-round stepping core of {!Step_core}: one iteration of Alg. 1
    over every process, as three phases ([begin_round], [compute],
    [deliver]), for processes that may decide. *)
module type CORE = sig
  type state
  type msg
  type t

  val create :
    inputs:Anon_kernel.Value.t array -> crash:Crash.t -> churn:Churn.t -> env:Env.t -> t
  (** A core at round 0, before the first {!begin_round}. Inputs are read
      at every [initialize] (round 1 and each rejoin). *)

  val copy : t -> t
  (** Independent snapshot: phase calls on the copy never affect the
      original (algorithm states are immutable and shared). *)

  val begin_round : ?on_leave:(pid:int -> unit) -> ?on_rejoin:(pid:int -> unit) -> t -> unit
  (** Advance to the next round: churn transitions, then the crash latch.
      Halted processes ignore churn; a rejoiner's state and mailbox are
      discarded here and rebuilt at the next {!compute}. *)

  val compute :
    ?observe:(pid:int -> round:int -> state -> unit) ->
    ?on_decide:(pid:int -> round:int -> value:Anon_kernel.Value.t -> unit) ->
    ?on_compute:(pid:int -> state -> unit) ->
    t ->
    msg Dispatch.outbound list
  (** The round's compute phase over every live process in pid order;
      returns the broadcasts (ascending pid). [on_decide] fires as a
      decider halts. [on_compute] sees the new state of every process
      that ran [compute] (not [initialize]), after [on_decide] and before
      [observe]. [observe] sees every post-compute state (deciders
      included) labelled with the algorithm round [k-1]. *)

  val ctx : t -> Adversary.ctx
  (** The adversary context after {!compute}: senders, obligated and alive
      receivers all coincide — the live processes not crashing this
      round. *)

  val deliver : t -> plan:Adversary.plan -> crash_rng:Anon_kernel.Rng.t -> Dispatch.stats
  (** Dispatch the round's broadcasts under [plan] and file them into the
      mailboxes, mark the latched crashers ({!crashing_pids}), and (ESS,
      past GST) latch the plan's source as the stable source. Returns the
      dispatched round: each sender's reached groups, from which a caller
      reads every delivery. [crash_rng] is consumed only for an
      {e unscripted} [Broadcast_subset] crasher — the model checker's
      plans always script those, so it may pass any generator. *)

  val preview :
    t -> plan:Adversary.plan -> crash_rng:Anon_kernel.Rng.t -> Dispatch.stats * int option
  (** What {!deliver} would do under [plan], without doing it: the
      dispatched round it would return and the stable source it would
      leave latched. Mutates nothing but [crash_rng], which it consumes
      exactly as {!deliver} would. *)

  val set_state : t -> int -> state -> unit
  (** Replace a process's state between rounds; bumps its version. *)

  val touch : t -> int -> unit
  (** Bump a process's version: a layer above changed a part of its view
      the core does not hold. *)

  val n : t -> int
  val round : t -> int
  val fate : t -> int -> fate
  val state : t -> int -> state option

  val out : t -> int -> msg option
  (** The broadcast produced by the last {!compute}, [None] when the
      process sent nothing (halted, crashed, away). *)

  val inflight : t -> int -> (int * int * msg) list
  (** Undrained [(arrival, sent, msg)] deliveries in the order a later
      [compute] reads them in [fresh]: ascending arrival, sent round and
      message, equal messages by descending sender pid. *)

  val input : t -> int -> Anon_kernel.Value.t
  (** The process's proposal, which [initialize] reads at round 1 and at
      every rejoin. *)

  val version : t -> int -> int
  val crashing_pids : t -> int list

  val stable : t -> int option
  (** The stable source {!deliver} latched where {!Env.owes} one. *)

  val undecided_correct_stayers : t -> int list
  (** Liveness is owed to correct stayers only: a churner may rejoin after
      everyone halted and run alone forever. *)

  val all_decided : t -> bool
  (** [undecided_correct_stayers t = \[\]], allocating nothing: the stop
      rule of the runner, the multiplexer and the model checker. *)

  val mailbox_pending : t -> int -> int
end
