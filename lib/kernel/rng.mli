(** Deterministic, splittable pseudo-random number generator (splitmix64).

    All randomness in the simulator flows through this module so that every
    run is reproducible from a single integer seed, independently of the
    OCaml standard library's global [Random] state. *)

type t
(** Mutable generator state. *)

val make : int -> t
(** [make seed] creates a generator from an integer seed. Equal seeds yield
    equal streams. *)

val copy : t -> t
(** Independent copy carrying the current state. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of [t]'s future stream, advancing [t] once. Used to give
    each simulated process or experiment its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). Requires
    [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. @raise Invalid_argument on []. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform random permutation. *)

val subset : t -> p:float -> 'a list -> 'a list
(** Independent inclusion of each element with probability [p], preserving
    order. *)
