(** The live execution backend: one thread per anonymous process.

    Where {!Anon_giraf.Runner} advances every process in lockstep under an
    adversary's delivery plan, this runner gives each process its own
    thread and lets synchrony emerge from the wall clock: processes
    exchange round messages over the faulty {!Transport}, pace their
    rounds with an adaptive {!Pacer}, and file and read their inboxes
    through the shared {!Anon_giraf.Backend} mailbox — the seam that makes a
    zero-fault live run decide {e exactly} what the lockstep runner
    decides at the same rounds (the differential suite pins this).

    Per-process protocol, mirroring Alg. 1 end-of-round [k]:
    initialize (k = 1) or compute round [k-1]'s mailbox; halt on decision;
    crash at the scheduled round with the scheduled last-broadcast
    behaviour; otherwise broadcast the round-[k] message and wait for
    round-[k] messages from every still-expected peer. A wait expires
    after the pacer's timeout: up to [retries] expiries rebroadcast the
    round message (harmless under anonymity — duplicates merge) and grow
    the timeout; then the round proceeds short, and peers silent for
    [miss_grace] consecutive short rounds stop being expected (halted and
    crashed peers are discovered, not announced).

    Every run is bounded twice — [round_budget] rounds and
    [wall_budget_s] seconds — so an undecidable configuration returns a
    structured [outcome] with diagnostics; it never hangs. Agreement and
    validity over the decided processes are judged by
    {!Anon_giraf.Checker} on {e every} run. *)

type config = {
  inputs : Anon_kernel.Value.t array;  (** One proposal per process; defines [n]. *)
  crash : Anon_giraf.Crash.t;
  faults : Anon_chaos.Netfault.spec;  (** The wire. *)
  timeout_init_s : float;  (** First-round pacer timeout. *)
  timeout_max_s : float;  (** Backoff cap. *)
  growth : float;  (** Pacer growth per expiry (>= 1). *)
  decay : float;  (** Pacer decay per quiet round ((0,1]). *)
  retries : int;  (** Timeout expiries (with rebroadcast) before a round proceeds short. *)
  miss_grace : int;  (** Consecutive short rounds before a silent peer is unexpected. *)
  round_budget : int;  (** Max end-of-rounds per process. *)
  wall_budget_s : float;  (** Wall-clock ceiling for the whole run. *)
  seed : int;  (** Transport faults, subset crashes. *)
}

val default_config :
  ?timeout_init_s:float ->
  ?timeout_max_s:float ->
  ?growth:float ->
  ?decay:float ->
  ?retries:int ->
  ?miss_grace:int ->
  ?round_budget:int ->
  ?wall_budget_s:float ->
  ?seed:int ->
  ?faults:Anon_chaos.Netfault.spec ->
  inputs:Anon_kernel.Value.t list ->
  crash:Anon_giraf.Crash.t ->
  unit ->
  config
(** Defaults: 20ms initial timeout, 1s cap, growth 2.0, decay 0.9,
    3 retries, miss grace 2, 200-round budget, 30s wall budget, seed 42,
    faultless wire.

    @raise Anon_giraf.Config_error.Invalid_config on empty inputs, an
    inputs/crash size mismatch, a non-positive or inverted timeout pair,
    non-finite probabilities, or negative retry/budget knobs. [run]
    re-validates direct constructions. *)

(** Why a process thread stopped. *)
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
  decide_latency_s : float option;  (** Run start to decision, wall seconds. *)
}

type outcome = {
  decisions : (int * int * Anon_kernel.Value.t) list;
      (** [(pid, round, value)] in wall-clock decide order. *)
  all_correct_decided : bool;
  undecided : int list;  (** Correct pids that did not decide, increasing. *)
  processes : process_report array;
  rounds_max : int;  (** Highest end-of-round any process reached. *)
  wall_s : float;  (** Run duration, start to last thread joined. *)
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

module Make (A : Anon_giraf.Intf.ALGORITHM) : sig
  val run : ?recorder:Anon_obs.Recorder.t -> config -> outcome
  (** Execute with one thread per process and block until all joined
      (bounded by the budgets — never a hang). [recorder] receives the
      run/decide/crash event stream and [live.*] metrics after the join;
      per-thread observability is aggregated, not streamed, because
      recorders are not thread-safe. *)
end
