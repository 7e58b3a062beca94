(** T16 — the saturation curve of the multi-shot consensus service:
    achieved throughput and decide-latency percentiles vs offered load
    (see EXPERIMENTS.md §T16 and DESIGN.md §14). *)

val t16 : unit -> Table.t
