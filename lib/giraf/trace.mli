(** Execution traces.

    The runner records, for every round, who sent, who crashed, which links
    were timely and who had decided — enough for the checkers to re-verify
    both the environment constraints (the adversary kept its promises) and
    the consensus properties, without trusting either the adversary or the
    algorithm. *)

type round_info = {
  round : int;
  senders : int list;  (** Broadcast a round-[round] message. *)
  crashing : int list;  (** Crashed at this round (possibly partial broadcast). *)
  source : int option;  (** The adversary's declared source (advisory). *)
  timely : (int * Anon_kernel.Pidset.t) list;
      (** Each sender's timely receivers: the processes that got its
          round-[round] message in their own round [round]. The implicit
          self-delivery is {e not} listed, nor is a sender timely to
          nobody; a sender's first entry is the one read. *)
  obligated : int list;
      (** Alive, non-halted processes at sending time (everyone who will
          compute this round) — whom a source was required to reach. This
          is deliberately stronger than the paper's literal §2.3 wording
          ("every correct process"): the Lemma 1 proof needs it, and
          experiment A2 shows uniform agreement breaks without it. *)
  decided : (int * Anon_kernel.Value.t) list;
      (** Decisions taken at this round's [compute] (i.e. on the mailbox of
          round [round - 1]). *)
  msg_sizes : (int * int) list;  (** Abstract payload size per sender. *)
}

type t = {
  n : int;
  inputs : Anon_kernel.Value.t array;
  crash : Crash.t;
  churn : Churn.t;  (** Join/leave schedule ({!Churn.none} when static). *)
  env : Env.t;  (** What the adversary promised. *)
  rounds : round_info list;  (** Chronological. *)
}

(** What an unsynchronized run records, round by round, for {!of_log}. *)
module Log : sig
  type 'm t

  val create : unit -> 'm t

  val broadcast : 'm t -> pid:int -> round:int -> size:int -> 'm -> unit
  (** [pid] broadcast its round-[round] message, of abstract size [size]. *)

  val read : 'm t -> pid:int -> round:int -> 'm list -> unit
  (** [pid] computed round [round] on this message set. *)

  val crash : 'm t -> pid:int -> round:int -> unit
  val decide : 'm t -> pid:int -> round:int -> Anon_kernel.Value.t -> unit
end

val of_log :
  msg_compare:('m -> 'm -> int) ->
  inputs:Anon_kernel.Value.t array ->
  crash:Crash.t ->
  env:Env.t ->
  'm Log.t ->
  t
(** The trace of rounds [1] up to the highest round broadcast, with
    {!Churn.none} and no declared source. Per round: the senders and
    [obligated] (the processes that computed the round) in pid order;
    sender [s] timely to [q <> s] iff a message equal to [s]'s under
    [msg_compare] is in the set [q] computed the round on — timeliness on
    content, so a relayed or merged copy counts (Alg. 1, footnote 2);
    [crashing] and [decided] latest first. *)

val timely_to : round_info -> int -> Anon_kernel.Pidset.t
(** Receivers (other than itself) that got [sender]'s message timely. *)

val decisions : t -> (int * int * Anon_kernel.Value.t) list
(** All [(pid, round, value)] decisions, chronological. *)

val last_round : t -> int
val pp_round : Format.formatter -> round_info -> unit
val pp : Format.formatter -> t -> unit
