(* Timing wrappers around the program's public interfaces. Nothing here
   reaches inside a library: each wrapper is a module or value the
   library already accepts in place of the real one. *)

open Anon_kernel
module G = Anon_giraf

let sp_compute = Span.make "core.compute"
let sp_initialize = Span.make "core.initialize"
let sp_state_key = Span.make "mc.state_key"
let sp_plan = Span.make "adversary.plan"

(* Counted, not timed: two clock reads would cost more than a
   [msg_compare], and message sizes are read after the call returns. *)
let msg_compares = ref 0
let msg_size_sum = ref 0
let msg_size_max = ref 0
let msgs = ref 0

(* The first and the last [window] [compute] durations: their means show
   whether a round costs more late in a run than early. *)
let window = 100
let first_ns = Array.make window 0
let last_ns = Array.make window 0

let reset () =
  msg_compares := 0;
  msg_size_sum := 0;
  msg_size_max := 0;
  msgs := 0;
  Array.fill first_ns 0 window 0;
  Array.fill last_ns 0 window 0

let mean_us a k =
  let k = min k window in
  if k = 0 then 0.
  else
    float_of_int (Array.fold_left ( + ) 0 (Array.sub a 0 k)) /. float_of_int k /. 1e3

let compute_us_first () = mean_us first_ns sp_compute.count
let compute_us_last () = mean_us last_ns sp_compute.count

let msg_size_mean () =
  if !msgs = 0 then 0. else float_of_int !msg_size_sum /. float_of_int !msgs

module Algorithm (A : G.Intf.ALGORITHM) = struct
  include A

  let msg_compare a b =
    incr msg_compares;
    A.msg_compare a b

  let sent m =
    let size = A.msg_size m in
    incr msgs;
    msg_size_sum := !msg_size_sum + size;
    if size > !msg_size_max then msg_size_max := size

  let initialize v =
    let ((_, m) as r) = Span.time sp_initialize (fun () -> A.initialize v) in
    Span.probe (fun () -> sent m);
    r

  let compute st ~round ~inbox =
    let ((_, m, dec) as r) =
      Span.time sp_compute (fun () -> A.compute st ~round ~inbox)
    in
    Span.probe (fun () ->
        let i = sp_compute.count - 1 in
        if i < window then first_ns.(i) <- sp_compute.last_ns;
        last_ns.(i mod window) <- sp_compute.last_ns;
        if dec = None then sent m);
    r
end

module Model (M : Anon_mc.Consensus_sys.MODEL) = struct
  include Algorithm (M)

  let state_key st = Span.time sp_state_key (fun () -> M.state_key st)
  let msg_key = M.msg_key
end

let adversary base =
  G.Adversary.scripted ~name:(G.Adversary.name base) ~env:(G.Adversary.env base)
    (fun ctx rng -> Span.time sp_plan (fun () -> G.Adversary.plan base ctx rng))

(* The kernel's public counters, read before and after a traced sample.
   The intern counters belong to the current interner scope, so read them
   inside the sample's [Pool.isolate]. *)
type kernel = { bumps : int; merges : int; hits : int; misses : int }

let kernel () =
  {
    bumps = Counter_table.prefix_bump_ops ();
    merges = Counter_table.min_merge_ops ();
    hits = History.intern_hits ();
    misses = History.intern_misses ();
  }

let kernel_delta ~before ~after =
  [
    ("kernel.prefix_bumps", float_of_int (after.bumps - before.bumps));
    ("kernel.min_merges", float_of_int (after.merges - before.merges));
    ("kernel.intern_hits", float_of_int (after.hits - before.hits));
    ("kernel.intern_misses", float_of_int (after.misses - before.misses));
  ]

(* Metrics of the wrappers above, shared by every workload. *)
let core_metrics () =
  [
    ("core.compute_calls", float_of_int sp_compute.count);
    ("core.compute_ms", Span.total_ms sp_compute);
    ("core.compute_us_first100", compute_us_first ());
    ("core.compute_us_last100", compute_us_last ());
    ("core.initialize_calls", float_of_int sp_initialize.count);
    ("core.initialize_ms", Span.total_ms sp_initialize);
    ("core.msg_compare_calls", float_of_int !msg_compares);
    ("core.msg_size_mean", msg_size_mean ());
    ("core.msg_size_max", float_of_int !msg_size_max);
    ("adversary.plan_calls", float_of_int sp_plan.count);
    ("adversary.plan_ms", Span.total_ms sp_plan);
  ]
