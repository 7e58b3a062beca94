(** Exhaustive enumeration of admissible delivery plans.

    The model checker branches, per round, over every schedule the
    environment admits: a choice of source (where the environment demands
    one), a timely/late fate for every non-obligated link, and a
    delivered/late/dropped fate for every link out of a sender crashing
    this round. What the round owes is read from {!Env.owes}; a property
    test pins agreement with {!Checker.check_env}: a plan marked
    [admissible] here is never flagged by the checker when the resulting
    trace is replayed, an armed one always is, and (up to the documented
    restrictions below) every checker-admissible delivery pattern over
    arrivals within [max_delay] is generated.

    Restrictions, argued in DESIGN.md §10:
    - Late arrivals range over [round + 1 .. round + max_delay]. For the
      consensus algorithms (Alg. 2/3) this is WLOG at [max_delay = 1]:
      their [compute] reads only the timely inbox ([current]), so a late
      message is never read no matter how late it is.
    - Under ESS from [gst] on, non-source senders never cover the whole
      obligated set, so the checker's stable-source candidate set stays the
      singleton chosen source. The excluded patterns (a non-source sender
      incidentally timely to everyone) are explored by the same
      configuration under ES, which forces them.
    - Crashing senders are assumed to use [Crash.Broadcast_subset] with a
      plan entry pinning the subset (see {!Dispatch}); each of their links
      is timely, late, or dropped. *)

type spec = {
  env : Env.t;
  stable : int option;
      (** ESS only: the current segment's stable source. From [gst] on, if
          it is still sending it is the forced source; if it has halted (or
          [None] at the first post-[gst] round) the enumeration branches
          over every correct sender as the new segment source — the chosen
          one is recorded as the plan's [source]. *)
  max_delay : int;  (** Late arrivals span [round + 1 .. round + max_delay]. *)
  crashing : int list;
      (** Senders crashing this round (their links may also be dropped). *)
  include_inadmissible : bool;
      (** Also emit one deliberately obligation-dropping plan per demanding
          round (everything late, crashers silent) — the armed mode used to
          prove the checker catches environment violations. *)
}

type choice = { plan : Adversary.plan; admissible : bool }

val product : 'a list list -> 'a list list
(** Cartesian product, the first axis varying slowest. *)

val enumerate : spec -> Adversary.ctx -> choice list
(** All distinct delivery patterns for this round (sender and receiver
    order normalised, declared source ignored), deterministically
    ordered. The senders are [ctx.obligated], then [spec.crashing] (a
    crasher is never obligated); the receivers are [ctx.obligated]. *)

type memo
(** A cache over [enumerate] results. Many states of one exploration share
    their (round, stable, crashing, obligated) signature and therefore
    their exact choice list; memoizing skips the combinatorial rebuild.
    The cache assumes a fixed [spec] apart from its [stable]/[crashing]
    fields and a fixed [ctx.correct] — one exploration's worth. Not
    domain-safe: create it where it is used (the model checker creates one
    per [init]). *)

val memo : unit -> memo

val enumerate_memo : memo -> spec -> Adversary.ctx -> int * choice list
(** [enumerate] through the cache, keyed by a structural int key of the
    signature: the entry's index in the memo (equal indices, equal
    signatures) and its choices. The list is shared, treat it as
    immutable. *)
