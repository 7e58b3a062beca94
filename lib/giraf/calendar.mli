(** The event calendar every asynchronous driver takes its events from:
    the live backend, {!Skew_runner}, the MS emulation and the
    known-network baseline simulator.

    A binary min-heap of events, each filed under an integer time and a
    process id. {!pop} returns the event that sorts first by time, then
    by pid, then by insertion order — so two events with equal time and
    pid come out first-in, first-out, and a run driven by the calendar
    is a function of its inputs alone. The calendar holds no clock: each
    caller keeps its own loop, its own notion of time and its own stop
    rule. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> time:int -> pid:int -> 'a -> unit
(** File an event. O(log size). *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the first event as [(time, pid, event)], or
    [None] when the calendar is empty. O(log size). *)

val next_time : 'a t -> int option
(** The time of the event {!pop} would return, without removing it. *)
