(** Per-round communication graphs.

    A topology is a deterministic per-round directed-graph predicate. The
    live wire's [sever:NAME] fault ([Anon_chaos.Netfault]) holds back the
    copies sent over a link absent from the graph at their send round.

    Generators are pure functions of the round (hash-based, no RNG) so a
    replayed run rebuilds the identical graph sequence. A bad argument
    raises {!Config_error.Invalid_config}. *)

type t

val name : t -> string
(** Its CLI clause, the [NAME] of [sever:NAME] (e.g. [t-interval:3]). *)

val edge : t -> n:int -> round:int -> src:int -> dst:int -> bool

val float_clause : float -> string
(** A rate as a clause argument: the shortest of [%.15g], [%.16g] and
    [%.17g] that [float_of_string] reads back exactly. *)

val rotating_root : unit -> t
(** A star around a root that advances every round: round [r]'s root is
    [(r-1) mod n]. *)

val spanning_star : unit -> t
(** A spanning star whose center is re-drawn every round from a
    deterministic hash of the round. *)

val t_interval : t:int -> unit -> t
(** T-interval connectivity: a spanning star whose center only changes
    every [t >= 1] rounds — within each interval the graph is static. *)

val partition_pulse : period:int -> unit -> t
(** Every [period]-th round ([period >= 1]) the network splits into two
    halves (pids by parity) with no cross-partition links; all other
    rounds are complete. *)

val random_graph : density:float -> unit -> t
(** Each directed link exists independently per round with probability
    [density], drawn from a deterministic hash. Requires [density] in
    [\[0,1\]]. *)
