(** Alg. 1's end-of-round, written once for the unsynchronized backends
    {!Skew_runner}, [Ms_emulation] and [Live.Runner]: the process
    automaton that GIRAF (Keidar & Shraer) keeps apart from the
    environment firing it. The shell owns the process states, their
    {!Backend} mailboxes, the {!Trace.Log}, the events and the shared
    [run.*] metrics; a backend keeps its trigger (a pace timer, the
    weak-set add log, a quorum or a pacer deadline) and its network (the
    relay, the weak set, the faulty wire).

    [k_i] counts the rounds a process has broadcast. End-of-round [k =
    k_i + 1] initializes ([k = 1]) or computes round [k - 1] on its
    message set, halts on a decision, and otherwise broadcasts. A
    process whose crash event is at round [k] computes round [k - 1] like
    any other (it may decide instead), broadcasts with the event's kind,
    and stops. *)

type step =
  | Capped  (** [k] is past the round cap: the process stopped without computing. *)
  | Decided  (** It decided on round [k - 1]: it halted and sends nothing. *)
  | Sent of Crash.last_broadcast
      (** [k_i] is now [k], the message is filed in its own mailbox as
          timely, and the kind is [Broadcast_all], or the crash event's
          if the process crashed at [k] and stopped. *)

module Make (A : Intf.ALGORITHM) : sig
  type t

  val create :
    recorder:Anon_obs.Recorder.t -> inputs:Anon_kernel.Value.t array -> crash:Crash.t ->
    max_rounds:int -> seed:int -> t
  (** Emits [run_start]; registers [run.broadcasts], [run.deliveries],
      [run.decisions], [run.crashes], [run.msg_size] and
      [phase.compute_us]. *)

  val end_of_round : t -> int -> step
  (** Process [p]'s next end-of-round; [p] must not have stopped. Every
      decision, broadcast and crash goes to the trace log, the counters
      and the event stream. *)

  val file : t -> sender:int -> receiver:int -> sent:int -> A.msg list -> unit
  (** One copy of [sender]'s round-[sent] broadcast — its message, or
      the round set it relays ({!Skew_runner}) — reaches [receiver]: one
      [run.deliveries] and one [deliver]. Each message is filed with
      [arrival = max sent k_i(receiver)], so it is timely iff filed
      before [receiver] computes round [sent]. A stopped receiver gets
      nothing. *)

  val held : t -> int -> round:int -> A.msg list
  (** The round-[round] messages [p] holds where a copy would be filed
      now ({!Backend.peek}): its round set so far, or, once it computed
      the round, the late copies since its last compute. *)

  (** [round] is [k_i], [message] the round-[k_i] message ([k_i >= 1]),
      [stop] the step [p] stopped on ([Sent kind] for a crasher, [None]
      while it runs), [running] counts the processes not stopped, and
      [decisions] lists [(pid, round, value)] in decision order. *)

  val round : t -> int -> int
  val message : t -> int -> A.msg
  val stop : t -> int -> step option
  val stopped : t -> int -> bool
  val decided : t -> int -> bool
  val running : t -> int
  val all_correct_decided : t -> bool
  val decisions : t -> (int * int * Anon_kernel.Value.t) list

  val finish : t -> env:Env.t -> Trace.t Lazy.t
  (** Record the [kernel.*] deltas since {!create}, emit [run_end]
      (rounds: the highest [k_i]) and flush. The trace
      ({!Trace.of_log}) is built when forced. *)
end
