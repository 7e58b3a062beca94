(** Deterministic Domain-based worker pool for embarrassingly parallel
    simulation batches.

    Every seeded run of Algorithms 2–5 is a pure function of
    [(config, seed)], so experiment tables, fuzz campaigns and load
    shards fan out over independent tasks. {!map} executes those tasks
    on [jobs] domains and returns results in submission order, and
    every task runs inside a fresh kernel interner scope
    ({!Anon_kernel.History.with_fresh_interner}), so the output — runs,
    checker verdicts, and merged metrics snapshots alike — is
    bit-identical whatever [jobs] is. See DESIGN.md §9 for the
    determinism argument. *)

val default_jobs : int ref
(** Pool-wide default for {!map}'s [?jobs], initially [1] (sequential).
    The CLI sets it from [--jobs] so that fan-out sites deep inside the
    harness parallelize without threading an argument through every
    experiment. *)

val auto_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val resolve : ?jobs:int -> unit -> int
(** The job count {!map} will use: [Some 0] means autodetect
    ({!auto_jobs}), [Some j] with [j >= 1] is taken as-is, [None] falls
    back to [!default_jobs] (itself resolved the same way).
    @raise Invalid_argument on negative [jobs]. *)

val isolate : ('a -> 'b) -> 'a -> 'b
(** [isolate f x] runs [f x] inside a fresh kernel interner scope. This
    is what {!map} applies to every task; it is exposed so sequential
    re-executions (e.g. fuzz shrinking, repro replay) can match the
    pool's isolation exactly. *)

val map : ?jobs:int -> ?recorder:Anon_obs.Recorder.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [isolate f] to every item and returns
    the results in submission order.

    - [jobs] (via {!resolve}) domains pull tasks from a shared index;
      [jobs = 1] runs in the calling domain with no domain spawned (the
      sequential fallback) but with identical per-task isolation.
    - A call made from inside a pool worker runs sequentially — nested
      fan-out does not multiply domain counts.
    - If tasks raise, the exception of the {e lowest-index} failing task
      is re-raised in the caller (with its backtrace) once all tasks have
      settled — deterministic regardless of [jobs]. Remaining tasks are
      not cancelled.
    - [recorder] (default off) receives [exec.*] metrics, recorded by
      the coordinating domain only: counters [exec.tasks] and
      [exec.busy_us]/[exec.wall_us]/[exec.idle_us] totals (µs, rounded),
      histograms [exec.task_us] (per-task latency) and
      [exec.queue_wait_us] (submission-to-start wait), gauges
      [exec.jobs], [exec.speedup] (busy/wall — the cpu-vs-wall parallel
      speedup) and [exec.utilization] (busy / (jobs × wall), 1.0 = all
      domains busy throughout). Worker domains never touch the recorder,
      so [f] may freely create its own.

    Tasks must not let interned histories escape into shared state: each
    task's interner scope is private (see {!Anon_kernel.History}). *)
