(** Join/leave churn schedules, distinct from crashes.

    A process that {e leaves} at round [l] stops participating exactly like
    a silent crash — but it may {e rejoin} at a later round [r], at which
    point it restarts the algorithm from its initial state with an empty
    mailbox. Anonymity makes this the only sound semantics: there is no
    identifier under which state could have been parked, so a rejoiner is
    indistinguishable from a fresh process proposing its original input.

    Churn is orthogonal to crashes: a schedule may combine both, but a pid
    may appear in at most one of the two (see {!validate}, which every
    backend calls before it runs). A
    process that has already decided and halted ignores its churn event —
    decisions are irrevocable, so there is nothing left to leave. *)

type event = { pid : int; leave : int; rejoin : int option }
(** [pid] is away for rounds [leave <= round < rejoin]; [rejoin = None]
    means it never comes back (observationally a silent crash). *)

type t
(** A churn schedule for a system of [n] processes. *)

val none : n:int -> t
(** No churn; all [n] processes are stayers. *)

val of_events : n:int -> event list -> t
(** Explicit schedule. At most one event per pid; pids in [\[0, n)];
    [leave >= 1]; [rejoin > leave] when present.
    @raise Invalid_argument otherwise, with {!check_events}'s reason. *)

val check_events : n:int -> event list -> (unit, string) result
(** The first reason {!of_events} would refuse [events] for, in list
    order: ["pid out of range"], ["leave round must be >= 1"],
    ["rejoin round must be after leave round"] or ["duplicate pid"]. *)

val random :
  n:int -> churners:int -> max_round:int -> Anon_kernel.Rng.t -> t
(** [churners] distinct processes leave at uniform rounds in
    [\[1, max_round\]]; each rejoins 1–3 rounds later with probability 1/2,
    else never. Requires [0 <= churners <= n]. *)

val n : t -> int

val validate : where:string -> n:int -> crash:Crash.t -> ?churn:t -> unit -> unit
(** The one check that a run's schedules fit its [n] processes. Raises
    {!Config_error.Invalid_config} at [where] when [n < 1], when [crash]
    or [churn] is sized for another [n], or when a pid both crashes and
    churns. Backends without churn omit [churn]. *)

val events : t -> event list
(** Sorted by (leave round, pid). *)

val event : t -> int -> event option
val is_stayer : t -> int -> bool
(** The pid has no churn event. *)

val stayers : t -> int list
(** Processes with no churn event, increasing. Consensus termination and
    agreement are checked over correct stayers; validity over everyone. *)

val away : t -> pid:int -> round:int -> bool
(** Whether [pid] is absent for [round]'s compute and broadcast. *)

val leaving_at : t -> round:int -> event list
val rejoining_at : t -> round:int -> event list
val churners : t -> int
val pp : Format.formatter -> t -> unit
