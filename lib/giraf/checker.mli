(** Independent trace verification: the one safety oracle.

    Nothing here trusts the runner's bookkeeping beyond the raw delivery
    facts: environment obligations are re-derived from the timely sets, and
    the consensus properties are re-derived from inputs and decisions.

    The consensus and weak-set properties are decided by two {e online}
    judges, {!Consensus} and {!Weak_set}, which the model checker feeds one
    transition at a time so a counterexample is reported at the shallowest
    depth that exhibits it. The after-the-fact checks ({!check_decisions},
    {!check_consensus}, {!check_weak_set}) apply the same judges over a
    finished run; every backend (lockstep, skew, shared memory, rsm, live,
    model checker) is judged here. *)

type violation =
  | Agreement_violation of { p1 : int; v1 : Anon_kernel.Value.t; p2 : int; v2 : Anon_kernel.Value.t }
  | Validity_violation of { pid : int; value : Anon_kernel.Value.t }
  | Termination_violation of { undecided : int list; horizon : int }
  | No_source of { round : int }
  | Source_not_timely of { round : int; sender : int; missing : int list }
  | Unstable_source of { gst : int }
  | No_root of { round : int; window : int; senders : (int * int list) list }
      (** A rooted [Dynamic] pulse round where no sender covered the
          obligated receivers; [senders] lists every correct sender with
          the receivers it missed (the offending links). *)
  | Stability_violation of { round : int; window : int; sender : int; missing : int list }
      (** A healed round of a [Dynamic] stability window where a correct
          [sender] was late to [missing] obligated receivers. *)
  | Weak_set_lost_add of { value : Anon_kernel.Value.t; get_client : int; get_invoked : int }
  | Weak_set_phantom_value of { value : Anon_kernel.Value.t; get_client : int }
  | Register_stale_read of {
      reader : int;
      read_value : Anon_kernel.Value.t;
      expected : Anon_kernel.Value.t;
    }

val pp_violation : Format.formatter -> violation -> unit

val check_env : Trace.t -> violation list
(** Verify that the trace satisfies the environment recorded in it:
    - [Sync]: every correct sender covered every obligated receiver timely,
      in every round;
    - [Ms]: every round with obligations had {e some} sender covering them;
    - [Es gst]: MS always, and from [gst] on every correct sender covered
      the obligated receivers;
    - [Ess gst]: MS always, and one single correct process covered the
      obligated receivers in {e every} round from [gst] on — allowing the
      stable source to change only when the previous one decided and
      halted (halted processes execute no rounds, so the obligation
      passes on);
    - [Async]: nothing;
    - [Dynamic (stability, rooted)]: each pulse round (the first of every
      [stability]-round window) needs, when [rooted], some sender covering
      every obligated receiver (root reachability); every other round of
      the window needs every correct sender timely to every obligated
      receiver (the healed graph). *)

module Consensus : sig
  type t

  val create : ?exempt:int list -> inputs:Anon_kernel.Value.t list -> unit -> t
  (** [exempt] (default [\[\]]) lists pids outside the agreement
      obligation — churners, whose post-rejoin solo decisions are
      legitimate (see {!check_consensus}). *)

  val observe : t -> pid:int -> value:Anon_kernel.Value.t -> t * violation list
  (** Record one decision. Flags validity (value never proposed) against
      [inputs], agreement against the earliest recorded decision among
      non-exempt pids (exempt deciders are skipped in both directions), and
      irrevocability — a process deciding twice with different values —
      as an agreement violation of the process with itself. *)

  val decided : t -> (int * Anon_kernel.Value.t) list
  (** All decisions observed so far, earliest first. *)
end

val check_decisions :
  ?exempt:int list ->
  inputs:Anon_kernel.Value.t list ->
  (int * int * Anon_kernel.Value.t) list ->
  violation list
(** Feed [(pid, round, value)] decisions, in decision order, to a fresh
    {!Consensus} judge over the proposed [inputs]. Every validity violation
    comes first, then every agreement (and irrevocability) violation, each
    group in decision order. *)

val check_consensus :
  ?expect_termination:bool -> Trace.t -> violation list
(** {!check_decisions} over the trace's inputs and decisions, then (when
    [expect_termination], default [true]) termination of every correct
    {e stayer}. Processes with a churn event are exempt from agreement and
    termination, because a rejoiner restarting after the stayers halted can
    legitimately decide alone; validity binds everyone. *)

(** Operation records for weak-set semantics checking. Timestamps come from
    any totally ordered logical clock shared by all operations of a run. *)
type ws_add = {
  add_client : int;
  add_value : Anon_kernel.Value.t;
  add_invoked : int;
  add_completed : int option;  (** [None] while still pending at run end. *)
}

type ws_get = {
  get_client : int;
  get_result : Anon_kernel.Value.Set.t;
  get_invoked : int;
  get_completed : int;
}

type ws_op = Ws_add of ws_add | Ws_get of ws_get

module Weak_set : sig
  type t

  val create : unit -> t

  val invoke_add : t -> Anon_kernel.Value.t -> t
  val complete_add : t -> Anon_kernel.Value.t -> time:int -> t

  val invoked : t -> Anon_kernel.Value.Set.t
  val completed_values : t -> Anon_kernel.Value.Set.t
  (** The invoked / completed value sets — the permutation-invariant facts
      the model checker folds into its canonical keys (completion {e times}
      are irrelevant to future judgements: any past completion precedes any
      future invocation). *)

  val observe_get :
    t ->
    client:int ->
    correct:bool ->
    invoked_at:int ->
    result:Anon_kernel.Value.Set.t ->
    violation list
  (** Judge one completed [get]. Inclusion: every add completed strictly
      before [invoked_at] must appear in [result] (only enforced for
      correct clients, as in {!check_weak_set}); non-triviality: every
      member of [result] must stem from some invoked add. Lost adds come
      first, in completion order. Call it only after recording every add
      invoked before the [get] completed. *)
end

val check_weak_set : ?correct:int list -> ws_op list -> violation list
(** The two weak-set axioms (§5), judged by {!Weak_set} for each [get]:
    - every [get] returns every value whose [add] completed before the
      [get] was invoked;
    - no [get] returns a value whose [add] had not been invoked before the
      [get] completed.

    When [correct] is given, the first (liveness-flavoured) axiom is only
    enforced for [get]s by correct clients: Alg. 4's guarantee rides on
    the source reaching every {e correct} process (Lemma 8), so a process
    that later crashes may see a stale subset. The second axiom is safety
    and is enforced for everybody. Every lost add comes first, then every
    phantom value, each group in [get] order. *)
