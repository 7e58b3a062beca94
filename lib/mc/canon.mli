(** Canonical state keys modulo process permutation.

    Anonymous processes are interchangeable: permuting the process indices
    of a reachable global state yields a reachable global state with a
    permuted behaviour tree, and every property we check (agreement,
    validity, environment admissibility, weak-set axioms) is
    permutation-invariant. The explorer therefore identifies states by the
    {e multiset} of per-process views rather than the tuple, which is the
    anonymity symmetry reduction (DESIGN.md §10). Views are not kept as
    strings: each is hashed, and the hashes are summed, which is as
    permutation-invariant as sorting the views.

    A view must capture everything that influences the process's future
    observable behaviour: local algorithm state, the message it just
    broadcast, undelivered in-flight messages, its crash fate under the
    (fixed, per-exploration) crash schedule, and any per-process
    environment marker (the ESS stable source). Views are built from the
    run-independent [state_key]/[msg_key] serializations of lib/core, so
    keys agree across domains and interner scopes. *)

(** Incremental multiset digests — the state keys of the explorer.

    Each process view is hashed under two independent FNV-1a streams and
    the per-view hashes are combined by wrapping 64-bit addition; the pair
    of sums is a commutative function of the view multiset. A per-slot
    cache keyed on {!Anon_giraf.Step_core} version counters means only
    the processes whose views changed since the parent state are
    re-hashed.

    The digest key is 128 bits, not injective like a sorted string of
    views; two salted streams push accidental collisions far below the
    state counts any exploration reaches (test_step_core checks digests
    against full recomputation on every sampled node). *)
module Digest : sig
  type t

  val create : n:int -> t
  (** All slots empty (version [-1]); refresh every slot before reading
      {!key}. *)

  val copy : t -> t
  (** Independent snapshot — branch the digest alongside the system. *)

  (** Where a view is written: a dual-stream hash accumulator fed
      piecewise, so hot callers hash a view without building the
      intermediate string, or a text buffer for the reference path.
      [feed_int] matches [string_of_int], so one writer produces the
      same bytes for both; test_step_core pins [key = full_key] to keep
      the two paths honest. *)
  type stream

  val text : Buffer.t -> stream
  (** A stream that appends the fed bytes to the buffer. *)

  val feed_char : stream -> char -> unit
  val feed_string : stream -> string -> unit
  val feed_int : stream -> int -> unit

  val refresh_stream : t -> slot:int -> version:int -> (stream -> unit) -> unit
  (** [refresh_stream t ~slot ~version fill] replaces [slot]'s
      contribution with the sums [fill] accumulates on a fresh hash
      stream — skipped entirely when the cached version already matches,
      so [fill] must be a pure function of the versioned view. *)

  val key : t -> round:int -> global:string -> string
  (** The digest key over the current slot contributions. *)

  val full_key : round:int -> global:string -> views:string list -> string
  (** Reference implementation: the same key computed from scratch over
      explicit views. [key] after refreshing every slot must equal
      [full_key] on the slots' rendered views — the property
      test_step_core pins. *)
end
