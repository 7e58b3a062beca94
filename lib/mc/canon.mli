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
    broadcast, undelivered in-flight messages, its crash and churn fates
    under the (fixed, per-exploration) schedules, the input an away
    process rejoins from, and any per-process environment marker (the
    ESS stable source). Views are built from the run-independent
    [state_key]/[msg_key] serializations of lib/core (ESS's print
    structural digests of its histories and counter tables), so keys
    agree across domains and interner scopes. *)

(** Incremental multiset digests — the state keys of the explorer.

    Each process view is hashed under two independent FNV-1a streams and
    the per-view hashes are combined by wrapping 64-bit addition; the pair
    of sums is a commutative function of the view multiset. A slot keeps
    its view's hash pair until it is invalidated, so a successor
    re-hashes only the views its step invalidated (the model checker's
    step invalidates every view it may change).

    A key is a fixed-size record of ints: the round, the two stream
    hashes of the global facts, and the two view sums. It is 128 bits
    over the views and 128 over the global facts, not injective like a
    sorted string of views; two salted streams push accidental
    collisions far below the state counts any exploration reaches
    (test_step_core checks digests against full recomputation on every
    sampled node, and that keys partition the sampled states as the
    text keys they replace do). *)
module Digest : sig
  type t

  val create : n:int -> t
  (** All slots empty and invalid; refresh every slot before reading
      {!key}. *)

  val copy : t -> t
  (** Independent snapshot — branch the digest alongside the system. *)

  (** Where a view or the global facts are written: a dual-stream hash
      accumulator fed piecewise, so hot callers hash without building the
      intermediate string, or a text buffer for the reference path.
      [feed_int] writes [string_of_int]'s bytes through
      {!Anon_kernel.Value.iter_decimal}, so one writer produces the same
      bytes for both; test_step_core pins [key = full_key] to keep the
      two paths honest. *)
  type stream

  val text : Buffer.t -> stream
  (** A stream that appends the fed bytes to the buffer. *)

  val feed_char : stream -> char -> unit
  val feed_string : stream -> string -> unit

  val feed_int : stream -> int -> unit
  (** The bytes of [string_of_int n], for every int. *)

  val hashes : (stream -> 'a -> unit) -> 'a -> int * int
  (** [hashes write x] is the hash pair of the bytes [write] feeds for
      [x] — a view's slot contribution, or the global facts' pair. *)

  type key = { round : int; global1 : int; global2 : int; sum1 : int; sum2 : int }
  (** A canonical state key: the round, the hash pair of the global
      facts, and the wrapping sums of the views' hash pairs. Compare and
      hash it with {!equal_key} and {!hash_key}, as ints. *)

  val equal_key : key -> key -> bool
  val hash_key : key -> int
  val pp_key : Format.formatter -> key -> unit

  val invalidate : t -> int -> unit
  (** [invalidate t p]: slot [p]'s view may have changed, so the next
      {!refresh_stream} of [p] re-hashes it. *)

  val refresh_stream : t -> slot:int -> (stream -> unit) -> unit
  (** [refresh_stream t ~slot fill] replaces an invalid [slot]'s
      contribution with the sums [fill] accumulates on a fresh hash
      stream, and marks it valid; a valid slot is left as it is, so
      [fill] must be a pure function of the view, which may not change
      without an {!invalidate}. *)

  val key : t -> round:int -> global:int * int -> key
  (** The key over the current slot contributions, [global] the global
      facts' {!hashes}. *)

  val slot : t -> int -> int * int
  (** A slot's contribution, the hash pair of its view — current once
      the slot is refreshed. *)

  val assign : t -> slot:int -> int -> int -> unit
  (** [assign t ~slot a b] sets [slot]'s contribution to the pair [(a,
      b)], known to be the hash pair of its current view — what
      {!refresh_stream} would compute for it — and marks it valid. *)

  val key_of_sums : round:int -> global:int * int -> int -> int -> key
  (** The key whose slot contributions sum (wrapping) to the given pair:
      [key t] is [key_of_sums] of [t]'s slot sums. *)

  val full_key : round:int -> global:string -> views:string list -> key
  (** Reference implementation: the same key computed from scratch over
      the rendered global facts and explicit views. [key] after
      refreshing every slot must equal [full_key] on the slots' rendered
      views — the property test_step_core pins. *)
end
