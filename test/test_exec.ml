(* Tests for the execution pool (lib/exec): submission-order results,
   task isolation and crash propagation, and reproducible harness batches
   and fuzz campaigns. *)

module K = Anon_kernel
module G = Anon_giraf
module H = Anon_harness
module X = Anon_exec
module Ch = Anon_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Pool.map basics -------------------------------------------------------- *)

let test_map_order () =
  let items = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * x) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares at jobs=%d" jobs)
        expect
        (X.Pool.map ~jobs (fun x -> x * x) items))
    [ 1; 4 ]

let test_map_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (X.Pool.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (X.Pool.map ~jobs:4 (fun x -> x + 1) [ 6 ])

let test_map_jobs () =
  Alcotest.check_raises "jobs 0 refused" (Invalid_argument "Pool.map: jobs must be >= 1")
    (fun () -> ignore (X.Pool.map ~jobs:0 Fun.id [ 1 ]));
  let items = List.init 20 Fun.id in
  let f x = List.length (K.History.to_list (K.History.of_list (List.init x Fun.id))) in
  Alcotest.(check (list int)) "default = 1 domain = 4 domains" (X.Pool.map f items)
    (X.Pool.map ~jobs:4 f items);
  Alcotest.(check (list int)) "jobs 1" (X.Pool.map f items) (X.Pool.map ~jobs:1 f items)

let test_nested_map () =
  (* A map inside a worker task must not spawn domains-within-domains;
     it degrades to the sequential path with the same results. *)
  let result =
    X.Pool.map ~jobs:4
      (fun i -> X.Pool.map ~jobs:4 (fun j -> (10 * i) + j) [ 1; 2; 3 ])
      [ 1; 2 ]
  in
  Alcotest.(check (list (list int))) "nested" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] result

exception Boom of int

let test_crash_propagation () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "worker crash surfaces at jobs=%d" jobs)
        (Boom 2)
        (fun () ->
          ignore
            (X.Pool.map ~jobs
               (fun x -> if x >= 2 then raise (Boom x) else x)
               [ 0; 1; 2; 3; 4 ])))
    [ 1; 4 ];
  (* The lowest-index failure wins even though later tasks also raise —
     deterministic regardless of completion order. *)
  Alcotest.check_raises "lowest index wins" (Boom 1) (fun () ->
      ignore (X.Pool.map ~jobs:4 (fun x -> raise (Boom x)) [ 1; 2; 3; 4 ]))

let test_isolation () =
  (* Each task interns into a fresh table: interning done inside a task
     neither sees nor pollutes the caller's scope. *)
  let before = K.History.interned_count () in
  let counts =
    X.Pool.map ~jobs:1
      (fun i ->
        ignore (K.History.of_list (List.init 5 (fun j -> i + j)));
        K.History.interned_count ())
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "each task starts fresh" [ 6; 6; 6 ] counts;
  check_int "caller scope untouched" before (K.History.interned_count ())

(* The pool records only the two counters the benchmark's load sweep
   reads, on either path. *)
let test_map_exec_rows () =
  List.iter
    (fun jobs ->
      let registry = Anon_obs.Metrics.create () in
      let recorder = Anon_obs.Recorder.create ~metrics:registry () in
      ignore (X.Pool.map ~jobs ~recorder (fun x -> x + 1) [ 1; 2; 3 ]);
      let snap = Anon_obs.Metrics.snapshot registry in
      let rows =
        List.map fst snap.counters @ List.map fst snap.gauges
        @ List.map fst snap.histograms
      in
      Alcotest.(check (list string))
        (Printf.sprintf "exec rows at jobs=%d" jobs)
        [ "exec.busy_us"; "exec.wall_us" ]
        (List.filter (String.starts_with ~prefix:"exec.") rows))
    [ 1; 2 ]

(* --- Runs.batch and Fuzz.campaign: reproducible runs ------------------------ *)

module Es_runs = H.Runs.Of (Anon_consensus.Es_consensus)

let batch ?(seeds = H.Runs.seeds 12) () =
  Es_runs.batch ~horizon:200 ~metrics:true
    ~inputs:(H.Runs.distinct_inputs ~n:6)
    ~crash:(fun rng -> G.Crash.random ~n:6 ~failures:2 ~max_round:20 rng)
    ~adversary:(fun _ -> G.Adversary.es ~gst:15 ~noise:0.2 ())
    ~seeds ()

(* Timing histograms ([phase.] prefix) are wall-clock measurements and
   legitimately differ between any two executions; everything else in a
   snapshot is deterministic. *)
let deterministic_part (s : Anon_obs.Metrics.snapshot) =
  let keep (name, _) = not (String.length name >= 6 && String.sub name 0 6 = "phase.") in
  (s.counters, s.gauges, List.filter keep s.histograms)

let test_batch_reproducible () =
  let a = batch () in
  let b = batch () in
  check_int "runs" a.runs b.runs;
  check_int "decided" a.decided b.decided;
  Alcotest.(check (list int)) "decision rounds" a.decision_rounds b.decision_rounds;
  check_int "env violations" a.env_violations b.env_violations;
  check_int "agreement" a.agreement_violations b.agreement_violations;
  check_int "validity" a.validity_violations b.validity_violations;
  Alcotest.(check (list int)) "messages" a.messages b.messages;
  match a.metrics, b.metrics with
  | Some sa, Some sb ->
    check_bool "merged metrics identical (modulo wall-clock timings)" true
      (deterministic_part sa = deterministic_part sb);
    (match
       ( List.assoc_opt Anon_obs.Name.msg_size sa.histograms,
         List.assoc_opt Anon_obs.Name.msg_size sb.histograms )
     with
    | Some ha, Some hb ->
      check_bool "msg_size histogram populated" false (Anon_obs.Hist.is_empty ha);
      check_bool "msg_size histogram reproducible" true (Anon_obs.Hist.equal ha hb)
    | _ -> Alcotest.fail "merged batches must carry the msg_size histogram")
  | _ -> Alcotest.fail "both batches must carry metrics"

let test_batch_reversed_seeds () =
  (* A run's result depends on its seed alone, not on its place in the
     batch or on the runs before it: the batch over the reversed seeds holds
     the same per-run results in the reverse order. *)
  let seeds = H.Runs.seeds 12 in
  let a = batch ~seeds () in
  let b = batch ~seeds:(List.rev seeds) () in
  check_int "runs" a.runs b.runs;
  check_int "decided" a.decided b.decided;
  Alcotest.(check (list int))
    "decision rounds" a.decision_rounds (List.rev b.decision_rounds);
  check_int "env violations" a.env_violations b.env_violations;
  check_int "agreement" a.agreement_violations b.agreement_violations;
  check_int "validity" a.validity_violations b.validity_violations;
  Alcotest.(check (list int)) "messages" a.messages (List.rev b.messages)

let report_fingerprint (r : Ch.Fuzz.report) =
  ( r.runs_done,
    Option.map (fun f -> Anon_obs.Json.to_string (Ch.Fuzz.repro_json f)) r.finding )

let test_fuzz_reproducible_clean () =
  (* Admissible campaign: no violations either time, same runs_done. *)
  let a = Ch.Fuzz.campaign ~runs:15 ~seed:11 () in
  let b = Ch.Fuzz.campaign ~runs:15 ~seed:11 () in
  check_bool "identical clean reports" true
    (report_fingerprint a = report_fingerprint b)

let test_fuzz_reproducible_finding () =
  (* Inadmissible campaign: the checker must catch the armed fault, and
     the full shrunk finding (rendered as the repro JSON) must be
     byte-identical on a second run. *)
  let a = Ch.Fuzz.campaign ~inadmissible:true ~runs:25 ~seed:7 () in
  let b = Ch.Fuzz.campaign ~inadmissible:true ~runs:25 ~seed:7 () in
  check_bool "finding present" true (a.finding <> None);
  check_bool "identical findings" true (report_fingerprint a = report_fingerprint b)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "empty/singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "jobs validated, results domain-independent" `Quick
            test_map_jobs;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "crash propagation" `Quick test_crash_propagation;
          Alcotest.test_case "task isolation" `Quick test_isolation;
          Alcotest.test_case "exec rows" `Quick test_map_exec_rows;
        ] );
      ( "batch",
        [
          Alcotest.test_case "same seeds twice, same batch" `Quick test_batch_reproducible;
          Alcotest.test_case "reversed seeds, same runs" `Quick test_batch_reversed_seeds;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean campaign reproducible" `Quick
            test_fuzz_reproducible_clean;
          Alcotest.test_case "finding reproducible" `Quick test_fuzz_reproducible_finding;
        ] );
    ]
