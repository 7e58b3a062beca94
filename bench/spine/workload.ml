(* What the harness needs from a workload.

   An operation is what a user of one entry point waits for: a checked
   consensus run, a model-checker verdict, or a load sweep. [run] is the
   timed part; [prepare] builds its inputs from a seed and [check] judges
   its output, both outside the timed region. *)

type traced = {
  metrics : (string * float) list;  (** Per-layer metrics this workload measures. *)
  failures : string list;  (** Failed checks and traced-vs-real differentials. *)
}

module type S = sig
  val name : string

  val jobs : int
  (** Worker domains the operation may use. *)

  type input
  type output

  val prepare : seed:int -> input
  val run : input -> output

  val check : output -> (float, string) result
  (** The operation's logical cost when every output is correct. *)

  val describe : output -> string
  (** One line of workload-specific results for the human summary. *)

  val traced : seed:int -> reference:output -> reference_ms:float -> traced
  (** One traced sample at [seed], whose untraced twin produced
      [reference]; [reference_ms] is the median untraced operation. *)
end

(* Tracing overhead against the untraced median, and the share of the
   traced wall time (less the time spent measuring) that layer spans
   account for. *)
let trace_metrics ~wall_ns ~reference_ms =
  let wall_ms = Span.ms_of_ns wall_ns in
  [
    ("trace.overhead_pct", 100. *. (wall_ms -. reference_ms) /. reference_ms);
    ( "trace.coverage",
      Span.total_self_ms () /. Span.ms_of_ns (wall_ns - !Span.probe_ns) );
  ]

(* Run [f] as a traced sample: spans and counters start from zero, the
   heap is collected first, and [f] runs in a fresh interner scope as an
   untraced operation does. *)
let traced_sample f =
  Span.reset ();
  Timed.reset ();
  Gc.full_major ();
  let t0 = Span.now () in
  let r = Anon_exec.Pool.isolate f () in
  (r, Span.now () - t0)
