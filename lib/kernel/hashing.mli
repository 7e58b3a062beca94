(** Run-independent structural hashing (64-bit FNV-1a).

    The model checker hashes the text of each process view into its
    canonical state keys. [Hashtbl.hash] is unsuitable because it truncates
    deep structures, and [Marshal] digests are unsuitable because
    hash-consed values ([History.t]) and balanced-set internals have
    run-dependent physical layout. FNV-1a over an explicit serialization is
    stable across runs, domains and interner scopes. *)

type t = int64
(** Accumulated hash state. *)

val init : t
(** The FNV-1a 64-bit offset basis. *)

val byte : t -> char -> t
val string : t -> string -> t

val int : t -> int -> t
(** Feeds the 8 little-endian bytes of the integer. *)

val to_hex : t -> string
(** 16-digit lowercase hex rendering. *)

(** FNV-style hashing over native [int] state — the same fold shape
    truncated to OCaml's 63-bit integers, for hot paths where the boxed
    [int64] accumulator of {!string} costs an allocation per byte (the
    model checker hashes every process view of every generated state).
    Not interchangeable with the [int64] stream: use it only where the
    hash never leaves the process (in-memory keys), never for values that
    appear in reports or golden files. *)
module Fast : sig
  type h = int

  val init : h
  (** Offset basis (63-bit). *)

  val prime : h

  val byte : h -> char -> h
  (** [(h lxor byte) * prime], wrapping mod 2{^63}. *)

  val string : h -> string -> h

  val mix : h -> h
  (** A bijective finalizer (SplitMix64's, on 63-bit ints): nearby
      inputs map to unrelated outputs. The structural digests of
      {!History} and {!Counter_table} chain and combine through it. *)
end
