(** Crash schedules.

    Any number of processes may crash (no majority assumption anywhere in
    the paper). A process crashing at round [r] performs its end-of-round
    for rounds [< r] normally; at round [r] its broadcast reaches only an
    adversary-chosen subset of processes ([Broadcast_to]) — the hardest
    admissible behaviour of a crashing sender — and it takes no further
    steps. *)

type last_broadcast =
  | Silent  (** Crashes before sending its round-[r] message. *)
  | Broadcast_all  (** The round-[r] message reaches everyone (clean stop). *)
  | Broadcast_subset  (** An adversary/RNG-chosen subset receives it. *)

type event = { pid : int; round : int; broadcast : last_broadcast }

type t
(** A crash schedule for a system of [n] processes. *)

val none : n:int -> t
(** No crashes; all [n] processes are correct. *)

val of_events : n:int -> event list -> t
(** Explicit schedule. At most one event per pid; pids in [\[0, n)]. *)

val random :
  n:int -> failures:int -> max_round:int -> Anon_kernel.Rng.t -> t
(** [failures] distinct processes crash at uniform rounds in
    [\[1, max_round\]] with [Broadcast_subset] behaviour.

    @raise Config_error.Invalid_config unless [0 <= failures <= n]. *)

val n : t -> int
val events : t -> event list
val correct : t -> int list
(** Processes that never crash, increasing. *)

val is_correct : t -> int -> bool
val crash_round : t -> int -> int option
(** [Some r] if the pid crashes at round [r]. *)

val crashing_at : t -> round:int -> event list
val failures : t -> int
val pp : Format.formatter -> t -> unit
