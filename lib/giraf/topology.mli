(** Per-round communication graphs.

    A topology is a deterministic per-round directed-graph predicate. The
    live wire's [sever:NAME] fault ([Anon_chaos.Netfault]) holds back the
    copies sent over a link absent from the graph at their send round.

    Generators are pure functions of the round (hash-based, no RNG) so a
    replayed run rebuilds the identical graph sequence. *)

type t

val name : t -> string
val edge : t -> n:int -> round:int -> src:int -> dst:int -> bool

val rotating_root : ?period:int -> unit -> t
(** A star around a root that advances every [period] rounds (default 1):
    round [r]'s root is [(r-1)/period mod n]. *)

val spanning_star : ?seed:int -> unit -> t
(** A spanning star whose center is re-drawn every round from a
    deterministic hash of [(seed, round)]. *)

val t_interval : t:int -> unit -> t
(** T-interval connectivity: a spanning star whose center only changes
    every [t] rounds — within each interval the graph is static. *)

val partition_pulse : period:int -> unit -> t
(** Every [period]-th round the network splits into two halves (pids by
    parity) with no cross-partition links; all other rounds are complete. *)

val random_graph : ?seed:int -> density:float -> unit -> t
(** Each directed link exists independently per round with probability
    [density], drawn from a deterministic hash. Requires
    [density] in [\[0,1\]]. *)
