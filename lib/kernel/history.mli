(** Hash-consed proposal histories (Alg. 3).

    A history is the sequence of values a process has appended to its
    [HISTORY] variable, one per round. Histories are interned so that
    equality is O(1), hashing is O(1), and the prefix walks required by
    the counter table (Alg. 3 line 9) are O(length difference).

    The intern table is {e domain-local}: each domain of the execution
    pool (lib/exec) interns into its own table, so parallel simulations
    never share mutable state. Interning is append-only within a scope;
    it only caches structure and never affects algorithm semantics.
    Histories from different interner scopes (different domains, or
    different {!with_fresh_interner} extents) must not be compared with
    {!equal}/{!compare} — ids are only unique within one scope. *)

type t

val empty : t
(** The empty history (the root of the intern trie). *)

val snoc : t -> Value.t -> t
(** [snoc h v] is the history [h] extended with [v]. *)

val of_list : Value.t list -> t
val to_list : t -> Value.t list

val length : t -> int
val last : t -> Value.t option
(** Last appended value; [None] on [empty]. *)

val id : t -> int
(** Intern id, unique within one interner scope; [empty] has id 0. A
    history is interned after its parent, so ids strictly decrease along
    {!parent} links toward the root. *)

val parent : t -> t
(** The history without its last value; [parent empty] is [empty].
    Walking [parent] links visits every prefix without allocating. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Arbitrary total order (by intern id), suitable for [Map]/[Set] keys.
    Not the prefix order. *)

val compare_lexicographic : t -> t -> int
(** Lexicographic order on the underlying value sequences: a deterministic,
    run-independent total order used where observable tie-breaking matters. *)

val hash : t -> int

val is_prefix : prefix:t -> t -> bool
(** [is_prefix ~prefix:h1 h2] holds iff [h1] is a (not necessarily proper)
    prefix of [h2]. [empty] is a prefix of everything. *)

val prefixes : t -> t list
(** All prefixes of [h] from [empty] up to and including [h] itself,
    shortest first. Length [length h + 1]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [⟨v1·v2·…⟩]. *)

val with_fresh_interner : (unit -> 'a) -> 'a
(** [with_fresh_interner f] runs [f] against a brand-new, empty intern
    table and restores the previous one afterwards (also on exceptions).
    The execution pool wraps every task in this, making each run's id
    assignment and hit/miss statistics independent of whatever ran before
    it — the determinism argument for sequential/parallel equivalence
    (DESIGN.md §9). Histories created inside must not escape and be
    compared against histories from other scopes. *)

val interned_count : unit -> int
(** Number of distinct histories interned so far in the current scope
    (diagnostics / benches). *)

val intern_hits : unit -> int
(** Count of [snoc] calls answered from the current scope's intern table.
    Monotone within a scope; observability samples it before/after a run
    for deltas. *)

val intern_misses : unit -> int
(** Count of [snoc] calls that allocated a new history in the current
    scope. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
