open Anon_kernel

type t = {
  metrics : Metrics.t;
  sink : Sink.t;
  events_live : bool;  (* cached [not (Sink.is_null sink)] *)
}

let off = { metrics = Metrics.disabled; sink = Sink.null; events_live = false }

let create ?metrics ?(sink = Sink.null) () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  { metrics; sink; events_live = not (Sink.is_null sink) }

let active t = t.events_live || Metrics.is_enabled t.metrics
let metrics t = t.metrics
let sink t = t.sink
let emit t mk = if t.events_live then Sink.emit t.sink (mk ())
let flush t = Sink.flush t.sink

let counter t name = Metrics.counter t.metrics name
let histogram t name = Metrics.histogram t.metrics name
let gauge t name = Metrics.gauge t.metrics name

type kernel_baseline = {
  intern_hits : int;
  intern_misses : int;
  min_merges : int;
  prefix_bumps : int;
  table_slots : int;
}

let kernel_baseline () =
  {
    intern_hits = History.intern_hits ();
    intern_misses = History.intern_misses ();
    min_merges = Counter_table.min_merge_ops ();
    prefix_bumps = Counter_table.prefix_bump_ops ();
    table_slots = Counter_table.slot_visits ();
  }

let record_kernel t b =
  if Metrics.is_enabled t.metrics then begin
    let record name now was =
      Metrics.incr ~by:(now - was) (counter t name)
    in
    record "kernel.history.intern_hits" (History.intern_hits ()) b.intern_hits;
    record "kernel.history.intern_misses" (History.intern_misses ()) b.intern_misses;
    record "kernel.counter_table.min_merges"
      (Counter_table.min_merge_ops ())
      b.min_merges;
    record "kernel.counter_table.prefix_bumps"
      (Counter_table.prefix_bump_ops ())
      b.prefix_bumps;
    record "kernel.counter_table.slots" (Counter_table.slot_visits ()) b.table_slots
  end
