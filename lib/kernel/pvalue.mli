(** Proposal values extended with the special value [⊥] (bottom).

    In the ESS consensus algorithm (Alg. 3), processes that do not consider
    themselves leaders propose [⊥] instead of staying silent: the safety
    argument needs every process to relay {e something} every round so that
    the current source's value reaches everybody. *)

type t = Bot | Val of Value.t

val bot : t
val v : Value.t -> t

val compare : t -> t -> int
(** Total order with [Bot] strictly below every [Val _]. *)

val equal : t -> t -> bool

val to_value : t -> Value.t option
(** [Some v] for [Val v], [None] for [Bot]. *)

module Set : Set.S with type elt = t

val values_of_set : Set.t -> Value.t list
(** All non-[⊥] members, increasing. *)

val max_value : Set.t -> Value.t option
(** Maximum non-[⊥] member, i.e. [max (S \ {⊥})] — [None] if the set
    contains only [⊥] or is empty. *)

val subset_of_val_bot : Value.t -> Set.t -> bool
(** [subset_of_val_bot v s] is [s ⊆ {v, ⊥}] — the decision guard of
    Alg. 3 line 11. *)
