(** Algorithm 3 — consensus in the eventually-stable-source (ESS)
    environment, via {e pseudo leader election}.

    A true leader election is impossible without identities, so processes
    identify each other by the {e history} of their proposal values: two
    processes that ever propose differently have diverged histories
    forever. Every message carries the sender's history and a counter table
    [C]; counters of histories belonging to eventual sources grow by one
    every round at every out-connected process (Lemma 4), while counters of
    other processes' histories are dragged down by the pointwise-[min]
    merge. A process considers itself a leader when its own history's
    counter ties the maximum — eventually exactly the processes converging
    to one common infinite history do (Lemmas 5–6).

    Crucially, non-leaders do not fall silent: they propose [⊥] so the
    current source's value still reaches everybody every round (§4.1). *)

type state

type message = {
  m_proposed : Anon_kernel.Pvalue.Set.t;
  m_history : Anon_kernel.History.t;
  m_counters : Anon_kernel.Counter_table.t;
}

include
  Anon_giraf.Intf.ALGORITHM with type state := state and type msg = message

val is_leader : state -> bool
(** Whether the process currently considers itself a leader
    ([∀H, C\[HISTORY\] ≥ C\[H\]]). *)

val current_val : state -> Anon_kernel.Value.t
val history : state -> Anon_kernel.History.t
val counters : state -> Anon_kernel.Counter_table.t
val proposed : state -> Anon_kernel.Pvalue.Set.t
val written : state -> Anon_kernel.Pvalue.Set.t
val written_old : state -> Anon_kernel.Pvalue.Set.t

val state_key : state -> string
(** Canonical, run-independent serialization of the full local state:
    the history and the counter table render as their structural
    digests ({!Anon_kernel.History.digest},
    {!Anon_kernel.Counter_table.digest}), never by intern id, so keys
    agree across interner scopes and domains. Equal states give equal
    keys; distinct ones collide only where a 128-bit digest does. *)

val msg_key : msg -> string
(** Canonical serialization of a message, digests as in {!state_key}. *)

(** Merge rule for the counter tables (line 8): the paper uses pointwise
    minimum; [`Max] is the deliberately broken ablation A3. *)
type merge_rule = [ `Min | `Max ]

(** An ESS-consensus variant whose pseudo-leader flag is observable (for
    the instrumentation harness). *)
module type OBSERVABLE = sig
  include Anon_giraf.Intf.ALGORITHM with type msg = message

  val is_leader : state -> bool
end

module Ablation (_ : sig
  val merge : merge_rule

  val silent_non_leaders : bool
  (** Ablation A1a: non-leaders send an empty proposal set instead of
      [{⊥}]. *)

  val converged_disjunct : bool
  (** [false] is ablation A1b: drop line 15's [PROPOSED ⊆ {VAL, ⊥}]
      clause, so non-leaders propose ⊥ even once everybody agrees — each
      decision then stalls until a fresh source's history counter
      overtakes the halted leader's frozen one. *)
end) : OBSERVABLE
