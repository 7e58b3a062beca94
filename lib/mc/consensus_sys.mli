(** Consensus algorithms as explorable systems: the consensus family of
    {!System}.

    Wraps any key-serializable {!Anon_giraf.Intf.ALGORITHM} into an
    {!Explore.SYSTEM} whose transitions replicate {!Anon_giraf.Runner.Make}
    exactly, phase-shifted so the adversary's plan is the branch label: a
    node is the system {e after} the compute phase of iteration [k]
    (round-[k] messages produced, round-[k] crash events latched), and one
    step applies a round-[k] delivery plan, marks the crashers, and runs the
    compute phase of iteration [k+1]. Decisions feed
    {!Anon_giraf.Checker.Consensus} online, so a violating schedule is
    reported at the transition that commits it.

    The crash schedule is fixed per exploration (enumerated outside, see
    {!Mc}), which keeps the static [correct] set — and therefore the
    environment obligations — identical to what {!Anon_giraf.Runner} and
    {!Anon_giraf.Checker} would use when the witness is replayed. *)

module type MODEL = sig
  include Anon_giraf.Intf.ALGORITHM

  val state_key : state -> string
  (** Run-independent canonical serialization: equal for equal states,
      different for different ones (up to the 128-bit digests ESS's
      keys print). *)

  val msg_key : msg -> string
  (** The same for messages. The search renders each distinct message
      once: it interns messages by [msg_compare]. *)
end

type spec = {
  inputs : Anon_kernel.Value.t list;
  crash : Anon_giraf.Crash.t;
  churn : Anon_giraf.Churn.t;
      (** Join/leave schedule, fixed per exploration like [crash]. A
          leaver's state and mail are discarded; a rejoiner re-initializes
          from its original input (anonymity leaves nothing to recover).
          Churners are exempt from the online agreement/termination
          obligations, mirroring {!Anon_giraf.Checker.check_consensus}. *)
  env : Anon_giraf.Env.t;  (** Environment whose admissible plans are enumerated. *)
  max_delay : int;  (** {!Plan_enum} late-arrival horizon ([1] is WLOG here). *)
  armed : bool;  (** Also branch on one inadmissible plan per demanding round. *)
}

val make : (module MODEL) -> spec -> (module Explore.SYSTEM)
(** @raise Anon_giraf.Config_error.Invalid_config (see
    {!Anon_giraf.Churn.validate}) when [inputs] is empty, its size
    disagrees with [crash] or [churn], or a pid both crashes and churns. *)

val make_probe : (module MODEL) -> spec -> (module Explore.SYSTEM_DEBUG)
(** Same system with the pid-indexed {!Explore.SYSTEM_DEBUG.snapshot}
    rendering, for the runner-vs-checker differential test. *)
