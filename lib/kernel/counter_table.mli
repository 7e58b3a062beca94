(** History counter tables (the [C] variable of Alg. 3).

    Conceptually [C] maps {e every} history to a natural number, defaulting
    to 0; only non-zero entries are stored ("no memory is allocated for
    histories it has not yet heard of"). Each round the algorithm runs
    lines 8 and 9 on its inbox, as one kernel call, {!merge_bump}:

    - line 8: pointwise [min] over all received tables (with default 0 this
      keeps exactly the keys present in {e all} tables), then
    - line 9: [C\[m.HISTORY\] := 1 + max {C\[H\] | H prefix of m.HISTORY}]
      for every received history, in inbox order.

    A table is immutable: one sequence of entries in ascending intern-id
    order, each a history with its count, its prefix-max (the largest
    count over the entry and its prefixes in the table) and its running
    max (the largest count over it and the entries before it), and a
    per-run index mapping each {!History.run} to the ascending ids of its
    entries. The entry sequence keeps its last 1 to 32 entries in a tail
    array and the rest in full 32-slot segments under a radix tree of
    32-way nodes; an edit copies the tail and, when it reaches further
    back, the nodes from its first changed slot on, sharing the ones
    before; each run's ids are stored the same way. Alg. 3's edits land
    at the end, since new histories get the largest ids, so a round
    copies the entries' tail and the tails of the one or two runs that
    change, and no allocation exceeds 33 words at any size. Full
    segments and nodes of entries are hash-consed, so tables with equal
    content share them wherever they were built. Below, [T] is the
    number of entries, [S] the entries from the first changed slot to the
    end, and [r] the number of runs on a history's root path.

    {b Order contract.} Tables travel inside messages, and {!compare}
    orders message sets, so it fixes ESS inbox order and hence the order
    of line-9 bumps. It is the order of [Map.compare Int.compare] over the
    bindings keyed by intern id: lexicographic over (id, count) in
    ascending id order, a table that is a strict prefix of another
    ordering first. {!bindings} are ascending by id. *)

type t

val empty : t

val get : t -> History.t -> int
(** Counter of a history, defaulting to 0. O(log T). *)

val set : t -> History.t -> int -> t
(** [set t h c] stores [c]; storing 0 removes the entry. O(S·r·log T). *)

val merge_bump : t list -> History.t list -> t
(** [merge_bump ts hs] is Alg. 3's lines 8 and 9 on one inbox: the
    pointwise minimum with default 0 of the tables [ts] (a key survives
    only if present in every table, with the least count; [[]] gives
    [empty]), then [C\[h\] := 1 + max {C\[H\] | H prefix of h}] for each
    [h] of [hs] in list order (the max is at least 0, over the default).

    Each bump sees the ones before it, so list order matters: a
    descendant bumped before its ancestor does not see the ancestor's new
    count, while one bumped after it does. A history listed twice is
    bumped twice.

    One rebuild, from the first slot either line changes. Line 8 is a
    sorted k-way intersection over the tables not physically equal to the
    first, starting after the leading segments all [k] of them share,
    which, being hash-consed, are all their equal full segments:
    O(k·(32 + S)), O(k·T) at worst. The [j]-th bump reads the
    prefix-max at [h]'s deepest ancestor-or-self below the first changed
    slot, found by one search of the run index per run on [h]'s path, and
    checks the merged entries from that slot on and the [j - 1] earlier
    bumps with {!History.is_prefix}: O(r·log T + (S + j)·r). The rebuild
    applies the run index's additions and removals in id order, each
    maximal batch of one run's changes with one rebuild of that run's ids
    from the batch's first change, O(S) per batch, and recomputes the
    prefix-max and running max from the first changed slot on,
    O(S·r·log T); this covers bumping a history whose descendants are in
    the table. Returns the first table itself when neither line changes
    anything. *)

val max_merge : t list -> t
(** Pointwise maximum of a list of tables: the union of their keys, each
    with its largest count (ablation A3, whose line 9 is [merge_bump] on
    the one merged table). [max_merge []] is [empty]. O(k·T). *)

val is_max : t -> History.t -> bool
(** Alg. 3 leader test: [∀H, C\[h\] ≥ C\[H\]] — whether [h]'s counter ties
    the table's maximum (trivially true on an all-zero table). One lookup
    against the last entry's running max, O(log T). *)

val max_binding : t -> (History.t * int) option
(** Some entry of maximal counter, [None] if the table is all-zero. Ties
    are broken by lexicographic history order so the result is
    deterministic. *)

val min_merge_ops : unit -> int
(** Domain-local count of line-8 steps, one per [merge_bump] call.
    Monotone within a domain; observability samples it before/after a run
    for deltas. *)

val prefix_bump_ops : unit -> int
(** Domain-local count of histories bumped by [merge_bump]. *)

val slot_visits : unit -> int
(** Domain-local count of the table entries the operations above scanned,
    copied or probed (index words are not counted): the work measure
    whose growth per round shows whether a round's cost depends on the
    round number. *)

val bindings : t -> (History.t * int) list
(** Ascending by intern id. *)

val cardinal : t -> int
(** O(1). *)

val digest : t -> int * int
(** A structural digest of the table's content: each entry's
    {!History.digest} hashed with its count, the entry hashes summed, so
    it depends on the set of (history, count) entries and not on their
    order or on intern ids. Equal tables have equal digests in every
    interner scope. Computed on demand in O(T), allocating only the
    result pair: no column is kept per edit, so Alg. 3's rounds do not
    pay for it. *)

val compare : t -> t -> int
(** The order contract above. Skips the leading segments both tables
    share, hash-consed ones included, so O(tail) on tables with equal
    content and O(T) at worst. *)

val equal : t -> t -> bool
