(** Immutable sets of process ids, as bitsets.

    A round's schedule names receivers by set (Alg. 1 delivers one
    broadcast to a set of processes), so the lockstep layers hold
    receiver sets as bitsets over pids: 32 pids per word, any number of
    words. Membership, cardinality and the cardinality of an
    intersection allocate nothing; {!inter}, {!union} and {!remove}
    return an argument itself, without allocating, when the result
    equals it. The representation is canonical (no trailing
    empty words), so structural equality is set equality. *)

type t

val empty : t
val is_empty : t -> bool

val of_list : int list -> t
(** @raise Invalid_argument on a negative pid, as every constructor. *)

val to_list : t -> int list
(** Ascending. *)

val mem : int -> t -> bool
(** [false] for a negative pid. *)

val remove : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val cardinal : t -> int
val inter_cardinal : t -> t -> int

val iter : (int -> unit) -> t -> unit
(** Ascending. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending: [fold f s a] is [f pk (... (f p1 a))]. *)

(** Sets under construction, for building sets member by member
    without a set per member: [rows] sets over the pids below [size], in
    one array. *)
module Rows : sig
  type set := t
  type t

  val create : rows:int -> size:int -> t

  val add : t -> row:int -> int -> unit
  (** @raise Invalid_argument on a pid outside [\[0, size)]. *)

  val is_empty : t -> row:int -> bool

  val take : t -> row:int -> set
  (** The members added to the row since its last [take]; empties it. *)
end
