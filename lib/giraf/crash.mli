(** Crash schedules.

    Any number of processes may crash (no majority assumption anywhere in
    the paper). A process crashing at round [r] performs its end-of-round
    for rounds [< r] normally; at round [r] its broadcast reaches only an
    adversary-chosen subset of processes ([Broadcast_subset]) — the hardest
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
(** Explicit schedule. At most one event per pid; pids in [\[0, n)];
    [round >= 1].
    @raise Invalid_argument otherwise, with {!check_events}'s reason. *)

val check_events : n:int -> event list -> (unit, string) result
(** The first reason {!of_events} would refuse [events] for, in list
    order: ["pid out of range"], ["round must be >= 1"] or
    ["duplicate pid"]. *)

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
val event : t -> int -> event option
(** The pid's crash event; [None] if it is correct. *)

val reach : last_broadcast -> Anon_kernel.Rng.t -> int list -> int list
(** [reach kind rng candidates]: whom a crasher's last broadcast reaches
    when no plan pins it — all, none ([Silent]) or an [Rng.subset ~p:0.5]
    draw ([Broadcast_subset]); the only such draw on every backend. *)

val crashing_at : t -> round:int -> event list
val failures : t -> int
val pp : Format.formatter -> t -> unit
