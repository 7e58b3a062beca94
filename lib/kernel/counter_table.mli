(** History counter tables (the [C] variable of Alg. 3).

    Conceptually [C] maps {e every} history to a natural number, defaulting
    to 0; only non-zero entries are stored ("no memory is allocated for
    histories it has not yet heard of"). The two operations the algorithm
    performs each round are:

    - line 8: pointwise [min] over all received tables (with default 0 this
      keeps exactly the keys present in {e all} tables), and
    - line 9: [C\[m.HISTORY\] := 1 + max {C\[H\] | H prefix of m.HISTORY}].

    A table is immutable and flat: parallel arrays of intern ids (strictly
    ascending), counts and histories, plus the cached largest count. Each
    array is stored in fixed 64-slot segments; an update builds fresh
    segments from its first changed slot on and shares the ones before.
    Alg. 3's updates land at the tail, since new histories get the largest
    ids, so they allocate about one segment. Below, [T] is the number of
    entries, [S] the entries from the first changed slot to the end, and
    [len] a history's length.

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
(** [set t h c] stores [c]; storing 0 removes the entry. O(T). *)

val min_merge : t list -> t
(** Pointwise minimum with default 0 of a list of tables: a key survives
    only if present (non-zero) in every table, with the minimum value.
    [min_merge []] is [empty]. One sorted k-way intersection pass that
    starts after the segments all [k] tables share, O(k·T) at worst;
    returns the first table itself when nothing changes. *)

val max_merge : t list -> t
(** Pointwise maximum of a list of tables: the union of their keys, each
    with its largest count (ablation A3). [max_merge []] is [empty].
    O(k·T). *)

val bump_prefix_max : t -> History.t -> t
(** Alg. 3 line 9: [C\[h\] := 1 + max {C\[H\] | H prefix of h}] (the max is
    at least 0, over the default). Walks [h]'s parent links and the id
    array downward together, allocation-free: O(len + T), stopping early
    once the running max reaches the table's largest count. The result
    allocates O(S). *)

val bump_all : t -> History.t list -> t
(** Line 9 for a whole inbox: [bump_prefix_max] for each history in list
    order, each bump seeing the ones before it, with one rebuild of the
    table instead of one per history. O(Σ (len + T)) walks plus a sort of
    the new keys; allocates O(S). [bump_all t [] == t]. *)

val is_max : t -> History.t -> bool
(** Alg. 3 leader test: [∀H, C\[h\] ≥ C\[H\]] — whether [h]'s counter ties
    the table's maximum (trivially true on an all-zero table). One lookup
    against the cached maximum, O(log T). *)

val max_binding : t -> (History.t * int) option
(** Some entry of maximal counter, [None] if the table is all-zero. Ties
    are broken by lexicographic history order so the result is
    deterministic. *)

val min_merge_ops : unit -> int
(** Domain-local count of [min_merge] calls. Monotone within a domain;
    observability samples it before/after a run for deltas. *)

val prefix_bump_ops : unit -> int
(** Domain-local count of histories bumped, by [bump_prefix_max] or
    [bump_all]. *)

val bindings : t -> (History.t * int) list
(** Ascending by intern id. *)

val cardinal : t -> int
(** O(1). *)

val compare : t -> t -> int
(** The order contract above. Skips the leading segments both tables
    share, so O(1) on physically equal tables and O(T) at worst. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
