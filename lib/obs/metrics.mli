(** Metrics registry: named counters, gauges, and histograms.

    Handles are obtained once (hashtable lookup) and then updated on hot
    paths with a single mutation; handles from a disabled registry are a
    shared no-op constructor, so instrumented code pays one branch when
    observability is off. Registries are single-run scoped: the harness
    snapshots one registry per run and {!merge}s the snapshots for batch
    aggregation.

    Naming convention (see DESIGN.md §7): dot-separated subsystem paths,
    with a unit suffix on histograms — e.g. [run.broadcasts],
    [kernel.history.intern_hits], [phase.compute_us]. A fact that more
    than one backend counts has one name, in {!Name}; a fact of one
    backend keeps that backend's prefix. *)

type t
(** A registry. *)

val create : unit -> t
(** A fresh, enabled registry. *)

val disabled : t
(** The shared disabled registry: every handle it returns is a no-op and
    [snapshot] is empty. *)

val is_enabled : t -> bool

(* --- instruments ---------------------------------------------------------- *)

type counter

val counter : t -> string -> counter
(** Find-or-create. Two calls with the same name return the same
    underlying cell. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

type gauge

val gauge : t -> string -> gauge
val set_gauge : gauge -> float -> unit

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** Record one sample into a fixed-size log-scale bucket array (O(1),
    bounded memory — see {!Hist}). *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and observes its monotonic duration in
    {e microseconds}. When [h] is a no-op handle, [f] is called with no
    clock reads. *)

(* --- snapshots ------------------------------------------------------------ *)

type snapshot = {
  counters : (string * int) list;  (** Sorted by name. *)
  gauges : (string * float) list;  (** Sorted by name. *)
  histograms : (string * Hist.t) list;
      (** Independent histogram copies, sorted by name. *)
}

val snapshot : t -> snapshot

val reset : t -> unit
(** Zero every counter, clear every gauge and histogram; handles stay
    valid. *)

val merge : snapshot list -> snapshot
(** Batch aggregation: counters sum, gauges average (a merged gauge is the
    mean of the runs that set it), histograms merge bucket-wise
    ({!Hist.merge} — associative, commutative, byte-deterministic in any
    order). *)

val summaries : snapshot -> (string * Anon_kernel.Stats.summary) list
(** One {!Anon_kernel.Stats} summary per non-empty histogram. *)

val render : Format.formatter -> snapshot -> unit
(** Human-readable table: counters, gauges, then histogram summaries. *)

val to_json : snapshot -> Json.t
(** [{"counters":{..},"gauges":{..},"histograms":{name:{count,mean,...}}}] *)
