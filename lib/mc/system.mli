(** Explorable systems over the lockstep step core, for both families.

    A node is the system {e after} the compute phase of iteration [k]
    (round-[k] messages produced, round-[k] crash events latched); one
    step applies a round-[k] delivery plan and runs iteration [k+1], so
    the adversary's plan is the branch label. This functor owns what the
    consensus ({!Consensus_sys}) and weak-set ({!Ws_sys}) families share:
    the crash and churn fates of each view, plan enumeration with the
    armed-plan markers, the one process-view writer behind both [key] and
    [key_full], the incremental digest, and successor keys predicted
    without stepping. A family supplies only what differs: its transition
    and the judge it feeds, extra view fields, the global facts, when a
    branch closes, and the pid-indexed snapshot.

    {b Predicted successors.} A process's next view is a function of its
    view, the round, the multiset of messages it receives, whether it is
    the ESS stable source after the plan, whether it crashes at the end
    of the round, and, if it will rejoin, its input. [expand] keeps a
    per-exploration memo from that transition to the post-view digest,
    or to {e loud} when the process fed the judge. A plan's deliveries
    are the reached groups of {!Anon_giraf.Intf.CORE.preview}, a dry run
    of the real dispatch, scattered into each receiver's pattern of
    [(sender, arrival)] pairs. When all [n] transitions of a plan are
    known and quiet, the successor's key is the parent's global facts
    with the post-view digests summed, and the branch is
    {!Explore.Predicted}; otherwise it is stepped, and teaches its [n]
    transitions (DESIGN.md §10).

    {b Keys without strings.} Nothing on the search path builds a
    string to look something up: a key is a record of ints
    ({!Canon.Digest.key}), the plan memo and the dispatch tables are
    keyed by structural int keys, and messages are interned with the
    algorithm's [msg_compare], each id keeping the one [msg_key]
    rendering a view writes. The text a view hashes is the same as when
    it was rendered anew. *)

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

  val msg_compare : Core.msg -> Core.msg -> int
  (** The algorithm's message order: the search interns messages by it,
      with one [msg_key] rendering per distinct message. *)

  val core : node -> Core.t
  (** Its {!Anon_giraf.Intf.CORE.stable} source, the one the replay's
      dispatch latches, is the one plan enumeration keeps and a view
      marks with [|S]. *)

  val init : unit -> node

  val step :
    node -> Anon_giraf.Adversary.plan -> node * Anon_giraf.Checker.violation list * int list
  (** One transition on a copy, with the safety violations it commits
      and the pids that fed the judge in it (consensus: the deciders;
      weak set: the clients that invoked an add, ran a get or completed
      an add). A transition of any other process leaves the judge, and
      so the global facts, untouched — what lets {!make}'s [expand]
      predict successor keys without stepping. *)

  val view_extra : Canon.Digest.stream -> node -> int -> unit
  (** Family fields of a live process's view, written after its fates. *)

  val global : Canon.Digest.stream -> node -> unit
  (** Writes the permutation-invariant global facts of the key, as
      [view_extra] writes a view: the key takes their hash pair. *)

  val terminal : node -> bool
  (** Consensus: the core's stop rule {!Anon_giraf.Intf.CORE.all_decided}. *)

  val pending : node -> int list
  val snapshot : node -> string
end

val make : (module FAMILY) -> (module Explore.SYSTEM)

val make_probe : (module FAMILY) -> (module Explore.SYSTEM_DEBUG)
(** Same system with {!Explore.SYSTEM_DEBUG.snapshot}, the rendered
    views and the reference [key_full], for the runner-vs-checker
    differential test. *)
