(** Consensus proposal values.

    The paper's algorithms only require a totally ordered value domain (they
    take maxima of non-empty sets); integers are sufficient and keep message
    comparison cheap. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** [string_of_int], byte for byte, without [Printf]: the strings of
    0 to 1023 are kept once rendered, so rendering one again allocates
    nothing. *)

val iter_decimal : ('a -> char -> unit) -> 'a -> int -> unit
(** [iter_decimal f x n] calls [f x c] on each character of
    [string_of_int n] in order, for every int, [min_int] included; it
    allocates nothing itself. {!to_string} and the model checker's
    digest streams render through it. *)

val max_of : t list -> t
(** Maximum of a non-empty list. @raise Invalid_argument on []. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val pp_set : Format.formatter -> Set.t -> unit
(** Prints as [{v1, v2, ...}] in increasing order. *)

val add_set : Buffer.t -> Set.t -> unit
(** Appends [{v1,v2,...}], increasing and without spaces: how the
    algorithms' state keys render a value set. *)

val set_of_list : t list -> Set.t
