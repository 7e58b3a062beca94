(** The recorder: one handle threaded through a simulator run.

    Bundles a {!Metrics.t} registry and an event {!Sink.t}. [off] is the
    universal default — every runner takes [?recorder] and pays one branch
    per instrumentation point when it is off (events are constructed
    lazily, metric handles are no-ops).

    Kernel-level quantities (history interning, counter-table merge work)
    are process-global monotone counters; {!kernel_baseline} /
    {!record_kernel} turn them into per-run deltas. *)

type t

val off : t
(** Inert: no metrics, null sink. *)

val create : ?metrics:Metrics.t -> ?sink:Sink.t -> unit -> t
(** Defaults: a fresh enabled registry; a null sink. *)

val active : t -> bool
(** Whether any instrumentation is live (metrics enabled or sink non-null). *)

val metrics : t -> Metrics.t
val sink : t -> Sink.t

val emit : t -> (unit -> Event.t) -> unit
(** [emit r mk] sends [mk ()] to the sink. [mk] is not called when the
    sink is null — keep event construction inside the thunk. *)

val flush : t -> unit
(** {!Sink.flush} on the recorder's sink. *)

(* --- hot-path handle helpers ---------------------------------------------- *)

val counter : t -> string -> Metrics.counter
val histogram : t -> string -> Metrics.histogram
val gauge : t -> string -> Metrics.gauge

(* --- kernel probes --------------------------------------------------------- *)

type kernel_baseline

val kernel_baseline : unit -> kernel_baseline
(** Sample the kernel's global instrumentation counters (cheap: five int
    reads). *)

val record_kernel : t -> kernel_baseline -> unit
(** Record the deltas since [kernel_baseline] as counters
    [kernel.history.intern_hits], [kernel.history.intern_misses],
    [kernel.counter_table.min_merges], [kernel.counter_table.prefix_bumps]
    and [kernel.counter_table.slots] (entries the table kernels visited,
    {!Anon_kernel.Counter_table.slot_visits}). *)
