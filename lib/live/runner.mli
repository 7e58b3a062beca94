(** The live execution backend: every anonymous process at its own pace.

    Where {!Anon_giraf.Runner} advances every process in lockstep under an
    adversary's delivery plan, this runner lets synchrony emerge from a
    clock: processes exchange round messages over the faulty
    {!Transport}, pace their rounds with an adaptive {!Pacer}, and file
    and read their inboxes through the shared {!Anon_giraf.Backend}
    mailbox — the seam that makes a zero-fault live run decide
    {e exactly} what the lockstep runner decides at the same rounds (the
    differential suite pins this).

    One single-threaded loop drives every process. It takes two kinds of
    event from an {!Anon_giraf.Calendar}: a packet arrival, filed under
    its receiver at the due time the transport drew for it, and a pacer
    deadline, filed under the waiting process with an epoch so that a
    superseded deadline is ignored. The run is a function of its config
    and its clock's readings: on the [Virtual] clock it is
    deterministic.

    Per-process protocol, mirroring Alg. 1 end-of-round [k]:
    initialize (k = 1) or compute round [k-1]'s mailbox; halt on decision;
    crash at the scheduled round with the scheduled last-broadcast
    behaviour; otherwise broadcast the round-[k] message and wait for
    round-[k] messages from every still-expected peer. A wait expires
    after the pacer's timeout: up to 3 expiries rebroadcast the round
    message (harmless under anonymity — duplicates merge) and grow the
    timeout; then the round proceeds short, and peers silent for 2
    consecutive short rounds stop being expected (halted and crashed
    peers are discovered, not announced). An arrival is filed
    with [arrival = max sent k]: a packet for a round the receiver has
    passed is late by exactly the lockstep clamp, and a faster peer's
    future round stays timely for when the receiver gets there.

    Every run is bounded twice — [round_budget] rounds and
    [wall_budget_s] seconds on the run's clock — so an undecidable
    configuration returns a structured [outcome] with diagnostics; it
    never hangs. Agreement and validity over the decided processes are
    judged by {!Anon_giraf.Checker} on {e every} run. *)

type config = {
  inputs : Anon_kernel.Value.t array;  (** One proposal per process; defines [n]. *)
  crash : Anon_giraf.Crash.t;
  faults : Anon_chaos.Netfault.spec;  (** The wire. *)
  timeout_init_s : float;  (** First-round pacer timeout. *)
  timeout_max_s : float;  (** Backoff cap. *)
  round_budget : int;  (** Max end-of-rounds per process. *)
  wall_budget_s : float;  (** Ceiling for the whole run, seconds on its clock. *)
  seed : int;  (** Transport faults, subset crashes. *)
}

val default_config :
  ?timeout_init_s:float ->
  ?timeout_max_s:float ->
  ?round_budget:int ->
  ?wall_budget_s:float ->
  ?seed:int ->
  ?faults:Anon_chaos.Netfault.spec ->
  inputs:Anon_kernel.Value.t list ->
  crash:Anon_giraf.Crash.t ->
  unit ->
  config
(** Defaults: 20ms initial timeout, 1s cap, 200-round budget, 30s wall
    budget, seed 42, faultless wire.

    @raise Anon_giraf.Config_error.Invalid_config on empty inputs, an
    inputs/crash size mismatch, a non-positive or inverted timeout pair,
    non-finite probabilities, or a non-positive budget. [run]
    re-validates direct constructions. *)

(** Why a process stopped. *)
type stop_reason =
  | Decided
  | Crashed
  | Round_budget_exhausted
  | Wall_budget_exhausted

type process_report = {
  pid : int;
  decision : (int * Anon_kernel.Value.t) option;  (** [(round, value)]. *)
  stop : stop_reason;
  rounds_executed : int;  (** End-of-rounds performed. *)
  timeouts_expired : int;
  rebroadcasts : int;  (** Application-level retransmissions on expiry. *)
  decide_latency_s : float option;  (** Run start to decision, clock seconds. *)
}

type outcome = {
  decisions : (int * int * Anon_kernel.Value.t) list;
      (** [(pid, round, value)] in decide order. *)
  all_correct_decided : bool;
  undecided : int list;  (** Correct pids that did not decide, increasing. *)
  processes : process_report array;
  rounds_max : int;  (** Highest end-of-round any process reached. *)
  wall_s : float;  (** Run duration on its clock, seconds. *)
  transport : Transport.stats;
  timeout_curve : float list;
      (** Per wait-round maximum of the processes' pacer trajectories —
          the run's discovered-synchrony profile. *)
  decide_latency : Anon_obs.Hist.t;  (** Seconds; one observation per decision. *)
  safety : Anon_giraf.Checker.violation list;
      (** {!Anon_giraf.Checker.check_decisions} over every decision
          (validity, agreement, irrevocability), checked on every run
          (fault-heavy and undecided runs included); [\[\]] is safe. *)
}

(** The clock a run reads. [Virtual] jumps straight to the next event,
    so a run takes only its CPU time and repeats exactly. [Wall] reads
    the monotonic clock, sleeps until the next event is due and stamps
    each send with the real time, so CPU cost shows in decide
    latencies. *)
type clock = Virtual | Wall

module Make (A : Anon_giraf.Intf.ALGORITHM) : sig
  val run : ?recorder:Anon_obs.Recorder.t -> clock:clock -> config -> outcome
  (** Execute until every process stopped or a budget ran out — never a
      hang. [recorder] receives the run/decide/crash event stream as it
      happens, and the [live.*] and [run.*] metrics. *)
end
