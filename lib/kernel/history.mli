(** Hash-consed proposal histories (Alg. 3).

    A history is the sequence of values a process has appended to its
    [HISTORY] variable, one per round. Histories are interned so that
    equality and hashing are O(1).

    The intern trie is cut into {e runs}: maximal first-child paths. A
    history joins its parent's run iff it is the first child of that
    parent interned in the current scope; otherwise it starts a run of its
    own. Ids grow with depth along a run, so the members of run R with an
    id at most [id h] are exactly [h]'s ancestors-or-self on R. Walking
    from [h] to the root visits one run per branch point on the way
    ({!run}, {!run_parent}); {!is_prefix} and the counter table's line-9
    lookup (Alg. 3) walk runs instead of parent links.

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

val digest : t -> int * int
(** A structural digest of the value sequence: set when the history is
    interned, from its parent's digest and its last value, never from an
    intern id. Equal histories have equal digests in every interner
    scope; distinct ones collide with negligible probability (two
    independent 63-bit chains). Allocates nothing. The model checker's
    ESS keys print it instead of the sequence. *)

val run : t -> int
(** The id of the head of [h]'s run: [h]'s highest ancestor-or-self that
    shares its run. [empty] heads run 0. Like ids, runs are per interner
    scope. *)

val run_parent : t -> t
(** The parent of the head of [h]'s run: [h]'s deepest ancestor on another
    run, which has an id below [run h]. For the members of run 0 it is
    [empty] (as [parent empty] is). *)

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
    prefix of [h2]. [empty] is a prefix of everything. O(runs on [h2]'s
    path above [h1]). *)

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
