(* The benchmark harness.

   Part 1 regenerates every experiment table of EXPERIMENTS.md (the
   paper's evaluation, reconstructed — see DESIGN.md §4): run with no
   arguments to get all of them, or pass experiment ids. Seed batches
   inside the experiments fan out on the execution pool (DESIGN.md §9);
   [--jobs N] sizes it (default: autodetect). Tables listed with
   [--compare ID] (default: T1) are additionally regenerated at
   [--jobs 1] to measure the pool's wall-clock speedup.

   Part 2 runs the pool-vs-sequential macro-benchmark: one fixed ES
   batch executed at jobs ∈ {1,2,4,8}, reporting ns per run and the
   exec.* pool metrics. It also times one fixed model-checking run
   (states/sec throughput).

   Part 3 runs Bechamel micro-benchmarks over the hot paths (history
   interning, counter-table merging, one compute step of each algorithm)
   and whole-run macro-benchmarks (one per experiment family), reporting
   nanoseconds per run. Pass [--no-bechamel] to skip it.

   Part 4 runs the multi-shot saturation sweep (the T16 configuration
   at a fixed rate series) and persists one anon-bench/3 [load] row per
   rate: achieved throughput and decide-latency percentiles, both in
   rounds — deterministic, so they diff cleanly across machines.

   Everything measured is persisted as machine-readable JSON
   ([--out FILE], default BENCH_PR9.json; schema anon-bench/3 with the
   git revision, [--label] and --jobs recorded) so bench runs leave a
   comparable baseline behind. *)

open Bechamel
open Toolkit
module K = Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module H = Anon_harness
module O = Anon_obs
module X = Anon_exec

(* --- part 1: the experiment tables ---------------------------------------- *)

type exp_timing = {
  exp_id : string;
  parallel_s : float;
  sequential_s : float option;  (* only for --compare ids *)
}

let time_table (e : H.Registry.experiment) ~jobs ~render =
  X.Pool.default_jobs := jobs;
  let t0 = O.Clock.now_ns () in
  let table = e.build () in
  let elapsed = O.Clock.ns_to_s (O.Clock.since_ns t0) in
  if render then H.Table.render Format.std_formatter table;
  elapsed

let run_experiments ids ~jobs ~compare_ids =
  let experiments =
    match ids with
    | [] -> H.Registry.all
    | ids ->
      List.map
        (fun id ->
          match H.Registry.find id with
          | Some e -> e
          | None -> failwith ("unknown experiment id: " ^ id))
        ids
  in
  Format.printf
    "=== Experiment tables (paper claims, reconstructed evaluation; jobs=%d) ===@."
    jobs;
  List.map
    (fun (e : H.Registry.experiment) ->
      let parallel_s = time_table e ~jobs ~render:true in
      Format.printf "   [%.2fs]@." parallel_s;
      let sequential_s =
        if jobs > 1 && List.exists (fun id -> String.lowercase_ascii id = String.lowercase_ascii e.id) compare_ids
        then begin
          let s = time_table e ~jobs:1 ~render:false in
          Format.printf "   [%s sequential: %.2fs — pool speedup %.2fx]@." e.id s
            (s /. Float.max 1e-9 parallel_s);
          if Domain.recommended_domain_count () = 1 then
            Format.printf
              "   [host-dependent: this host reports 1 core, so pool speedups \
               here say nothing about multicore hosts]@.";
          Some s
        end
        else None
      in
      X.Pool.default_jobs := jobs;
      { exp_id = e.id; parallel_s; sequential_s })
    experiments

(* --- part 2: pool vs sequential macro-benchmark ---------------------------- *)

(* A fixed, non-trivial batch: 32 seeded ES runs (n=8, blocking gst=10,
   horizon 100). Identical output at every jobs value — only wall time
   moves. *)
let pool_batch ~jobs () =
  let module B = H.Runs.Of (C.Es_consensus) in
  B.batch ~horizon:100 ~jobs
    ~inputs:(fun rng -> H.Runs.distinct_inputs ~n:8 rng)
    ~crash:(fun _ -> G.Crash.none ~n:8)
    ~adversary:(fun _ -> G.Adversary.es_blocking ~gst:10 ())
    ~seeds:(H.Runs.seeds 32) ()

type pool_timing = { pool_jobs : int; ns_per_run : float; pool_speedup : float }

let run_pool_bench () =
  Format.printf "@.=== Pool vs sequential (32-seed ES batch, best of 3) ===@.";
  let runs = 32 in
  let measure jobs =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = O.Clock.now_ns () in
      ignore (pool_batch ~jobs () : H.Runs.batch);
      let ns = Int64.to_float (O.Clock.since_ns t0) in
      if ns < !best then best := ns
    done;
    !best /. float_of_int runs
  in
  let baseline = measure 1 in
  List.map
    (fun jobs ->
      let ns = if jobs = 1 then baseline else measure jobs in
      let speedup = baseline /. ns in
      Format.printf "  jobs=%d %10.2f µs/run  speedup %.2fx@." jobs (ns /. 1e3)
        speedup;
      { pool_jobs = jobs; ns_per_run = ns; pool_speedup = speedup })
    [ 1; 2; 4; 8 ]

(* --- part 2b: model-checker throughput -------------------------------------- *)

(* A fixed closing configuration (ES, n=3, depth 6, crash budget 1: 19
   schedules, 3145 raw states); states/sec is raw states over wall time,
   best of 3. *)
type mc_timing = { mc_states : int; mc_s : float; mc_states_per_sec : float }

let run_mc_bench () =
  let module Mc = Anon_mc.Mc in
  let config =
    {
      Mc.algo = Mc.Es;
      n = 3;
      env = G.Env.Es { gst = 2 };
      rounds = 6;
      churn = 0;
      crashes = 1;
      max_delay = 1;
      search = Mc.Bfs;
      armed = false;
      jobs = Some 1;
      seed = 42;
      ops_per_client = 1;
    }
  in
  let states = ref 0 in
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = O.Clock.now_ns () in
    let report = Mc.run config in
    let s = O.Clock.ns_to_s (O.Clock.since_ns t0) in
    states := report.Mc.stats.Anon_mc.Explore.raw_states;
    if s < !best then best := s
  done;
  let per_sec = float_of_int !states /. Float.max 1e-9 !best in
  Format.printf
    "@.=== Model checker (ES n=3 depth 6, crash budget 1; best of 3) ===@.";
  Format.printf "  %d states in %.3fs  (%.0f states/sec)@." !states !best per_sec;
  { mc_states = !states; mc_s = !best; mc_states_per_sec = per_sec }

(* The exec.* metrics surface, demonstrated on one parallel fan-out. *)
let show_exec_metrics ~jobs =
  let registry = O.Metrics.create () in
  let recorder = O.Recorder.create ~metrics:registry () in
  let module B = H.Runs.Of (C.Es_consensus) in
  ignore
    (X.Pool.map ~jobs ~recorder
       (fun seed ->
         B.batch ~horizon:100 ~jobs:1
           ~inputs:(fun rng -> H.Runs.distinct_inputs ~n:8 rng)
           ~crash:(fun _ -> G.Crash.none ~n:8)
           ~adversary:(fun _ -> G.Adversary.es_blocking ~gst:10 ())
           ~seeds:[ seed ] ())
       (H.Runs.seeds 16)
      : H.Runs.batch list);
  Format.printf "@.=== exec.* pool metrics (16 tasks, jobs=%d) ===@." jobs;
  O.Metrics.render Format.std_formatter (O.Metrics.snapshot registry)

(* --- part 2: bechamel ------------------------------------------------------- *)

(* Micro: kernel hot paths. *)

let bench_history_snoc =
  Test.make ~name:"history: snoc x100"
    (Staged.stage (fun () ->
         let rec go h i = if i = 0 then h else go (K.History.snoc h (i mod 7)) (i - 1) in
         go K.History.empty 100))

let bench_history_prefix_walk =
  let h = K.History.of_list (List.init 200 (fun i -> i mod 5)) in
  let t =
    List.fold_left
      (fun acc p -> K.Counter_table.set acc p (K.History.length p + 1))
      K.Counter_table.empty (K.History.prefixes h)
  in
  Test.make ~name:"counter: bump over 200-prefix history"
    (Staged.stage (fun () -> K.Counter_table.bump_prefix_max t h))

let bench_counter_min_merge =
  let mk seed =
    let rng = K.Rng.make seed in
    List.fold_left
      (fun t i ->
        K.Counter_table.set t
          (K.History.of_list [ i mod 8; K.Rng.int rng 4 ])
          (1 + K.Rng.int rng 50))
      K.Counter_table.empty (List.init 30 Fun.id)
  in
  let tables = List.map mk [ 1; 2; 3; 4 ] in
  Test.make ~name:"counter: min-merge 4 tables x30 entries"
    (Staged.stage (fun () -> K.Counter_table.min_merge tables))

let inbox_of sets = { G.Intf.current = sets; fresh = Lazy.from_val [] }

let bench_es_compute =
  let sets = List.init 16 (fun i -> K.Value.set_of_list [ i; i + 1; 40 ]) in
  Test.make ~name:"es: one compute, 16-message inbox"
    (Staged.stage (fun () ->
         let st, _ = C.Es_consensus.initialize 3 in
         C.Es_consensus.compute st ~round:2 ~inbox:(inbox_of sets)))

let bench_ess_compute =
  let mk i =
    {
      C.Ess_consensus.m_proposed = K.Pvalue.Set.of_list [ K.Pvalue.v i; K.Pvalue.bot ];
      m_history = K.History.of_list (List.init 20 (fun j -> (i + j) mod 5));
      m_counters =
        K.Counter_table.set K.Counter_table.empty (K.History.of_list [ i mod 5 ]) i;
    }
  in
  let msgs = List.init 16 mk in
  Test.make ~name:"ess: one compute, 16-message inbox"
    (Staged.stage (fun () ->
         let st, _ = C.Ess_consensus.initialize 3 in
         C.Ess_consensus.compute st ~round:2 ~inbox:(inbox_of msgs)))

(* Macro: one whole run per experiment family. *)

let bench_es_run =
  Test.make ~name:"run: ES consensus, n=8, blocking gst=10"
    (Staged.stage (fun () ->
         let module R = G.Runner.Make (C.Es_consensus) in
         let config =
           G.Runner.default_config ~horizon:100
             ~inputs:(List.init 8 (fun i -> i + 1))
             ~crash:(G.Crash.none ~n:8)
             (G.Adversary.es_blocking ~gst:10 ())
         in
         R.run config))

let bench_ess_run =
  Test.make ~name:"run: ESS consensus, n=8, blocking gst=10"
    (Staged.stage (fun () ->
         let module R = G.Runner.Make (C.Ess_consensus) in
         let config =
           G.Runner.default_config ~horizon:100
             ~inputs:(List.init 8 (fun i -> i + 1))
             ~crash:(G.Crash.none ~n:8)
             (G.Adversary.ess_blocking ~gst:10 ())
         in
         R.run config))

(* Instrumentation overhead: the same ES run with observability off, with
   a live metrics registry, and with metrics + an in-memory event sink.
   The "off" variant still passes ~recorder (the default [off] handle), so
   the comparison isolates the cost of live instruments, not of the
   optional argument. *)

let es_obs_config =
  G.Runner.default_config ~horizon:100
    ~inputs:(List.init 8 (fun i -> i + 1))
    ~crash:(G.Crash.none ~n:8)
    (G.Adversary.es_blocking ~gst:10 ())

let bench_es_run_obs_off =
  Test.make ~name:"obs: ES run, recorder off"
    (Staged.stage (fun () ->
         let module R = G.Runner.Make (C.Es_consensus) in
         R.run ~recorder:O.Recorder.off es_obs_config))

let bench_es_run_obs_metrics =
  Test.make ~name:"obs: ES run, metrics on"
    (Staged.stage (fun () ->
         let module R = G.Runner.Make (C.Es_consensus) in
         let recorder = O.Recorder.create ~metrics:(O.Metrics.create ()) () in
         R.run ~recorder es_obs_config))

let bench_es_run_obs_events =
  Test.make ~name:"obs: ES run, metrics + memory sink"
    (Staged.stage (fun () ->
         let module R = G.Runner.Make (C.Es_consensus) in
         let recorder =
           O.Recorder.create ~metrics:(O.Metrics.create ())
             ~sink:(O.Sink.memory ~capacity:8192) ()
         in
         R.run ~recorder es_obs_config))

let bench_weakset_run =
  Test.make ~name:"run: weak-set in MS, n=8, 3 ops/client"
    (Staged.stage (fun () ->
         let module W = G.Service_runner.Make (C.Weak_set_ms) in
         let rng = K.Rng.make 4 in
         let workload =
           G.Service_runner.random_workload ~n:8 ~ops_per_client:3 ~max_start:20
             ~value_range:10_000 rng
         in
         W.run
           { G.Service_runner.n = 8;
             crash = G.Crash.none ~n:8;
             churn = G.Churn.none ~n:8;
             adversary = G.Adversary.ms ();
             horizon = 80;
             seed = 4 }
           ~workload))

let bench_emulation_run =
  Test.make ~name:"run: MS emulation hosting ES, n=4, 40 rounds"
    (Staged.stage (fun () ->
         let module E = C.Ms_emulation.Make (C.Es_consensus) in
         E.run
           (C.Ms_emulation.default_config ~inputs:[ 3; 1; 4; 1 ]
              ~crash:(G.Crash.none ~n:4) ~horizon_rounds:40 ~seed:7 ())))

let bench_sigma_attack =
  Test.make ~name:"run: sigma two-run attack, 4 candidates"
    (Staged.stage (fun () ->
         List.map
           (fun (module Cand : C.Sigma.CANDIDATE) ->
             C.Sigma.two_run_attack (module Cand) ~horizon:200)
           C.Sigma.builtin_candidates))

let bench_skew_run =
  Test.make ~name:"run: skewed ES, n=4, random pace/delay"
    (Staged.stage (fun () ->
         let module S = G.Skew_runner.Make (C.Es_consensus) in
         S.run
           (G.Skew_runner.default_config ~seed:5 ~horizon_ticks:500 ~max_rounds:60
              ~pace:(G.Skew_runner.uniform_pace ~max:3)
              ~delay:(G.Skew_runner.uniform_delay ~max:3)
              ~inputs:[ 1; 2; 3; 4 ]
              ~crash:(G.Crash.none ~n:4) ())))

let bench_checker =
  let out =
    let module R = G.Runner.Make (C.Es_consensus) in
    R.run
      (G.Runner.default_config ~horizon:100
         ~inputs:(List.init 8 (fun i -> i + 1))
         ~crash:(G.Crash.none ~n:8)
         (G.Adversary.es_blocking ~gst:30 ()))
  in
  Test.make ~name:"check: env + consensus over a 32-round trace"
    (Staged.stage (fun () ->
         (G.Checker.check_env out.trace, G.Checker.check_consensus out.trace)))

let all_benches =
  Test.make_grouped ~name:"anon-consensus"
    [
      bench_history_snoc;
      bench_history_prefix_walk;
      bench_counter_min_merge;
      bench_es_compute;
      bench_ess_compute;
      bench_es_run;
      bench_ess_run;
      bench_es_run_obs_off;
      bench_es_run_obs_metrics;
      bench_es_run_obs_events;
      bench_weakset_run;
      bench_emulation_run;
      bench_skew_run;
      bench_sigma_attack;
      bench_checker;
    ]

(* Returns the (name, ns) rows so the JSON baseline can persist them. *)
let run_bechamel () =
  Format.printf "@.=== Bechamel micro/macro benchmarks (ns per run) ===@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances all_benches in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some [ x ] -> x
        | Some _ | None -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      if ns < 1_000.0 then Format.printf "  %-50s %10.1f ns@." name ns
      else if ns < 1_000_000.0 then Format.printf "  %-50s %10.2f µs@." name (ns /. 1e3)
      else Format.printf "  %-50s %10.2f ms@." name (ns /. 1e6))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows);
  (* Instrumentation overhead relative to the recorder-off baseline. *)
  let find needle =
    List.find_map
      (fun (name, ns) ->
        if
          String.length name >= String.length needle
          && String.sub name (String.length name - String.length needle)
               (String.length needle)
             = needle
        then Some ns
        else None)
      !rows
  in
  (match find "recorder off" with
  | None -> ()
  | Some base when base <= 0.0 || Float.is_nan base -> ()
  | Some base ->
    let report label needle =
      match find needle with
      | Some ns when not (Float.is_nan ns) ->
        Format.printf "  instrumentation overhead (%s): %+.1f%%@." label
          (100.0 *. ((ns /. base) -. 1.0))
      | Some _ | None -> ()
    in
    report "metrics" "metrics on";
    report "metrics + events" "memory sink");
  List.sort (fun (a, _) (b, _) -> String.compare a b) !rows

(* --- part 4: the multi-shot saturation sweep -------------------------------- *)

(* The T16 configuration at a fixed rate series. The rows are
   deterministic (rounds-based throughput and latency, no wall clock), so
   unlike the timing rows they diff cleanly across machines. *)
let run_load_bench () =
  Format.printf "@.=== Multi-shot saturation sweep (T16 configuration) ===@.";
  let reports =
    H.Exp_load.saturation_reports ~rates:[ 1.; 2.; 4.; 8.; 16.; 32. ] ()
  in
  List.iter
    (fun (rate, (r : Anon_rsm.Load.report)) ->
      Format.printf
        "  rate %5.1f: throughput %.3f prop/round, p50 %.1f p99 %.1f p99.9 %.1f \
         rounds%s@."
        rate r.throughput r.p50_rounds r.p99_rounds r.p999_rounds
        (if r.agreement_ok && r.validity_ok then "" else "  UNSAFE"))
    reports;
  List.map (fun (_, r) -> Anon_rsm.Load.row_json r) reports

let baseline_json ~label ~jobs ~exp_timings ~pool_timings ~mc_timing ~micro
    ~load_rows =
  let open O.Json in
  let experiment_row (t : exp_timing) =
    Obj
      (("id", String t.exp_id)
      :: ("parallel_s", Float t.parallel_s)
      ::
      (match t.sequential_s with
      | None -> []
      | Some s ->
        [
          ("sequential_s", Float s);
          ("speedup", Float (s /. Float.max 1e-9 t.parallel_s));
        ]))
  in
  let pool_row (t : pool_timing) =
    Obj
      [
        ("jobs", Int t.pool_jobs);
        ("ns_per_run", Float t.ns_per_run);
        ("speedup", Float t.pool_speedup);
      ]
  in
  Obj
    [
      ("schema", String "anon-bench/3");
      ("label", String label);
      ("git_revision", String (H.Bench_diff.git_revision ()));
      ("cores", Int (Domain.recommended_domain_count ()));
      ("jobs", Int jobs);
      ("experiments", List (List.map experiment_row exp_timings));
      ("pool", List (List.map pool_row pool_timings));
      ( "mc",
        Obj
          [
            ("states", Int mc_timing.mc_states);
            ("seconds", Float mc_timing.mc_s);
            ("states_per_sec", Float mc_timing.mc_states_per_sec);
          ] );
      ( "micro",
        List
          (List.map
             (fun (name, ns) ->
               Obj [ ("name", String name); ("ns", Float ns) ])
             micro) );
      ("load", List load_rows);
    ]

let write_baseline ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (O.Json.to_string json);
      output_char oc '\n');
  Format.printf "@.baseline written to %s@." path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse args acc =
    let ids, jobs, out, label, bechamel, compare_ids = acc in
    match args with
    | [] -> (List.rev ids, jobs, out, label, bechamel, List.rev compare_ids)
    | "--no-bechamel" :: rest ->
      parse rest (ids, jobs, out, label, false, compare_ids)
    | "--jobs" :: n :: rest ->
      parse rest (ids, int_of_string n, out, label, bechamel, compare_ids)
    | "--out" :: f :: rest -> parse rest (ids, jobs, f, label, bechamel, compare_ids)
    | "--label" :: l :: rest ->
      parse rest (ids, jobs, out, l, bechamel, compare_ids)
    | "--compare" :: id :: rest ->
      parse rest (ids, jobs, out, label, bechamel, id :: compare_ids)
    | a :: rest -> parse rest (a :: ids, jobs, out, label, bechamel, compare_ids)
  in
  let ids, jobs, out, label, bechamel, compare_ids =
    parse args ([], 0, "BENCH_PR9.json", "PR9", true, [])
  in
  let jobs = X.Pool.resolve ~jobs () in
  let compare_ids = match compare_ids with [] -> [ "T1" ] | ids -> ids in
  X.Pool.default_jobs := jobs;
  let exp_timings = run_experiments ids ~jobs ~compare_ids in
  let pool_timings = run_pool_bench () in
  let mc_timing = run_mc_bench () in
  show_exec_metrics ~jobs:(max 2 jobs);
  let micro = if bechamel then run_bechamel () else [] in
  let load_rows = run_load_bench () in
  write_baseline ~path:out
    (baseline_json ~label ~jobs ~exp_timings ~pool_timings ~mc_timing ~micro
       ~load_rows);
  Format.printf "@.done.@."
