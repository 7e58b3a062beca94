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

val max_of : t list -> t
(** Maximum of a non-empty list. @raise Invalid_argument on []. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val pp_set : Format.formatter -> Set.t -> unit
(** Prints as [{v1, v2, ...}] in increasing order. *)

val set_of_list : t list -> Set.t
