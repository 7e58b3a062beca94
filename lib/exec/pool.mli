(** Per-run interner scopes, and the domain pool that only the load
    driver ([Anon_rsm.Load]) still uses.

    Every seeded run of Algorithms 2–5 is a pure function of
    [(config, seed)]. {!isolate} keeps it so when runs share a process:
    each runs inside a fresh kernel interner scope
    ({!Anon_kernel.History.with_fresh_interner}), so its intern ids, and
    with them ESS's inbox order, do not depend on what ran before.

    {!map}'s domain path, {!auto_jobs} and its two [exec.*] counters
    stay only because the benchmark's [load-rsm] workload runs
    [Anon_rsm.Load] on two domains and reads [exec.busy_us]/[exec.wall_us].
    No command runs on more than one domain (DESIGN.md §9 has the
    measurements); they go with the next change to the benchmark. *)

val auto_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val isolate : ('a -> 'b) -> 'a -> 'b
(** [isolate f x] runs [f x] inside a fresh kernel interner scope. Every
    batch run, fuzz case, shrink candidate, repro replay and search runs
    through it. *)

val map : ?jobs:int -> ?recorder:Anon_obs.Recorder.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [isolate f] to every item and returns
    the results in submission order.

    - [jobs] (default 1) domains pull tasks from a shared index;
      [jobs = 1] runs in the calling domain with no domain spawned, with
      the same per-task isolation.
    - A call made from inside a pool worker runs sequentially — nested
      fan-out does not multiply domain counts.
    - If tasks raise, the exception of the {e lowest-index} failing task
      is re-raised in the caller (with its backtrace) once all tasks have
      settled — deterministic regardless of [jobs]. Remaining tasks are
      not cancelled.
    - [recorder] (default off) receives two counters, recorded by the
      coordinating domain only: [exec.busy_us], the summed task times,
      and [exec.wall_us], the call's wall time (µs, rounded). Worker
      domains never touch the recorder, so [f] may freely create its
      own.

    Tasks must not let interned histories escape into shared state: each
    task's interner scope is private (see {!Anon_kernel.History}).

    @raise Invalid_argument when [jobs < 1]. *)
