(** Explorable systems over the lockstep step core, for both families.

    A node is the system {e after} the compute phase of iteration [k]
    (round-[k] messages produced, round-[k] crash events latched); one
    step applies a round-[k] delivery plan and runs iteration [k+1], so
    the adversary's plan is the branch label. This functor owns what the
    consensus ({!Consensus_sys}) and weak-set ({!Ws_sys}) families share:
    the crash and churn fates of each view, plan enumeration with the
    armed-plan markers, the one process-view writer behind both [key] and
    [key_full], and the incremental digest. A family supplies only what
    differs: its transition and the judge it feeds, extra view fields, the
    global facts, when a branch closes, and the pid-indexed snapshot. *)

module type FAMILY = sig
  module Core : Anon_giraf.Intf.CORE

  type node
  (** The family's node: a post-compute core plus what judges it. *)

  val crash : Anon_giraf.Crash.t
  val churn : Anon_giraf.Churn.t
  val env : Anon_giraf.Env.t
  val max_delay : int
  val armed : bool
  val state_key : Core.state -> string
  val msg_key : Core.msg -> string
  val core : node -> Core.t

  val stable : node -> int option
  (** The ESS stable source that constrains plan enumeration and marks a
      view with [|S]. *)

  val init : unit -> node

  val step : node -> Anon_giraf.Adversary.plan -> node * Anon_giraf.Checker.violation list
  (** One transition on a copy, with the safety violations it commits. *)

  val view_extra : Canon.Digest.stream -> node -> int -> unit
  (** Family fields of a live process's view, written after its fates. *)

  val global : node -> string
  (** Permutation-invariant global facts of the key. *)

  val terminal : node -> bool
  val pending : node -> int list
  val snapshot : node -> string
end

val make : (module FAMILY) -> (module Explore.SYSTEM)

val make_probe : (module FAMILY) -> (module Explore.SYSTEM_DEBUG)
(** Same system with {!Explore.SYSTEM_DEBUG.snapshot} and the reference
    [key_full], for the runner-vs-checker differential test. *)
