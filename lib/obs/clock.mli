(** Monotonic time source for phase timers and benchmarks.

    Wall-clock time ([Unix.gettimeofday]) jumps under NTP adjustment and
    must never feed latency measurements; everything in the observability
    layer reads CLOCK_MONOTONIC through bechamel's no-alloc stub instead. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary (but fixed) origin; strictly
    non-decreasing within a process. *)

val since_ns : int64 -> int64
(** [since_ns t0] is [now_ns () - t0]. *)

val ns_to_us : int64 -> float
val ns_to_s : int64 -> float
