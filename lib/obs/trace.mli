(** Causal trace export: the Chrome trace-event document of a run.

    {!chrome} is a {!Sink.stream} that writes a run's {!Event.t}s as a
    Chrome trace-event JSON document that Perfetto ([ui.perfetto.dev]) or
    [chrome://tracing] can open: per-process round spans, message
    send→deliver flow arrows, decide/crash instants, plus a global round
    timeline carrying the per-round senders/delivered/timely counts.

    Timestamps are {e logical}: round [k] owns ticks
    [[(k-1)*1000, k*1000)] and each event kind sits at a fixed offset in
    its round, so a fixed-seed run exports a byte-identical trace every
    time (DESIGN.md §11). *)

val chrome : out_channel -> Sink.t
(** Each event's [traceEvents] records are written as the event arrives,
    in emission order. The sink keeps only the run's shape (its algorithm,
    population, seed and round count, the largest round and pid seen,
    each process's first crash round), so its memory is O(processes)
    however long the run; {!Sink.close} then writes the track names and
    the per-process round spans, and closes the document. *)
