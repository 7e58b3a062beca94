(* Tests for the execution pool (lib/exec): submission-order results,
   sequential/parallel equivalence of harness batches and fuzz campaigns,
   task isolation, and crash propagation. *)

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

let test_resolve () =
  check_int "explicit" 3 (X.Pool.resolve ~jobs:3 ());
  check_bool "auto >= 1" true (X.Pool.resolve ~jobs:0 () >= 1);
  let saved = !X.Pool.default_jobs in
  X.Pool.default_jobs := 5;
  check_int "default" 5 (X.Pool.resolve ());
  X.Pool.default_jobs := saved;
  Alcotest.check_raises "negative" (Invalid_argument "Pool.resolve: jobs must be >= 0")
    (fun () -> ignore (X.Pool.resolve ~jobs:(-1) ()))

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

(* --- Runs.batch: sequential vs parallel ------------------------------------- *)

module Es_runs = H.Runs.Of (Anon_consensus.Es_consensus)

let batch ~jobs =
  Es_runs.batch ~horizon:200 ~metrics:true ~jobs
    ~inputs:(H.Runs.distinct_inputs ~n:6)
    ~crash:(fun rng -> G.Crash.random ~n:6 ~failures:2 ~max_round:20 rng)
    ~adversary:(fun _ -> G.Adversary.es ~gst:15 ~noise:0.2 ())
    ~seeds:(H.Runs.seeds 12) ()

(* Timing histograms ([phase.] and [exec.] prefixes) are wall-clock
   measurements and legitimately differ between any two executions;
   everything else in a snapshot is deterministic. *)
let deterministic_part (s : Anon_obs.Metrics.snapshot) =
  let keep (name, _) =
    not (String.length name >= 6 && String.sub name 0 6 = "phase.")
    && not (String.length name >= 5 && String.sub name 0 5 = "exec.")
  in
  (s.counters, s.gauges, List.filter keep s.histograms)

let test_batch_jobs_equivalence () =
  let b1 = batch ~jobs:1 in
  let b4 = batch ~jobs:4 in
  check_int "runs" b1.runs b4.runs;
  check_int "decided" b1.decided b4.decided;
  Alcotest.(check (list int)) "decision rounds" b1.decision_rounds b4.decision_rounds;
  check_int "env violations" b1.env_violations b4.env_violations;
  check_int "agreement" b1.agreement_violations b4.agreement_violations;
  check_int "validity" b1.validity_violations b4.validity_violations;
  Alcotest.(check (list int)) "messages" b1.messages b4.messages;
  match b1.metrics, b4.metrics with
  | Some s1, Some s4 ->
    check_bool "merged metrics identical (modulo wall-clock timings)" true
      (deterministic_part s1 = deterministic_part s4);
    (* The histogram merge itself must be jobs-invariant: the merged
       message-size histogram is non-empty and byte-identical whatever
       the chunking. *)
    (match
       ( List.assoc_opt Anon_obs.Name.msg_size s1.histograms,
         List.assoc_opt Anon_obs.Name.msg_size s4.histograms )
     with
    | Some h1, Some h4 ->
      check_bool "msg_size histogram populated" false (Anon_obs.Hist.is_empty h1);
      check_bool "msg_size histogram jobs-invariant" true (Anon_obs.Hist.equal h1 h4)
    | _ -> Alcotest.fail "merged batches must carry the msg_size histogram")
  | _ -> Alcotest.fail "both batches must carry metrics"

let test_batch_reproducible_at_same_jobs () =
  let a = batch ~jobs:4 in
  let b = batch ~jobs:4 in
  Alcotest.(check (list int)) "decision rounds" a.decision_rounds b.decision_rounds;
  Alcotest.(check (list int)) "messages" a.messages b.messages

(* --- Fuzz campaign: sequential vs parallel ----------------------------------- *)

let report_fingerprint (r : Ch.Fuzz.report) =
  ( r.runs_done,
    Option.map (fun f -> Anon_obs.Json.to_string (Ch.Fuzz.repro_json f)) r.finding )

let test_fuzz_jobs_equivalence_clean () =
  (* Admissible campaign: no violations either way, same runs_done. *)
  let r1 = Ch.Fuzz.campaign ~runs:15 ~seed:11 ~jobs:1 () in
  let r4 = Ch.Fuzz.campaign ~runs:15 ~seed:11 ~jobs:4 () in
  check_bool "identical clean reports" true
    (report_fingerprint r1 = report_fingerprint r4)

let test_fuzz_jobs_equivalence_finding () =
  (* Inadmissible campaign: the checker must catch the armed fault, and
     the full shrunk finding (rendered as the repro JSON) must be
     byte-identical whatever the job count. *)
  let r1 = Ch.Fuzz.campaign ~inadmissible:true ~runs:25 ~seed:7 ~jobs:1 () in
  let r4 = Ch.Fuzz.campaign ~inadmissible:true ~runs:25 ~seed:7 ~jobs:4 () in
  check_bool "finding present" true (r1.finding <> None);
  check_bool "identical findings" true (report_fingerprint r1 = report_fingerprint r4)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_order;
          Alcotest.test_case "empty/singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "crash propagation" `Quick test_crash_propagation;
          Alcotest.test_case "task isolation" `Quick test_isolation;
        ] );
      ( "batch",
        [
          Alcotest.test_case "jobs=1 equals jobs=4" `Quick test_batch_jobs_equivalence;
          Alcotest.test_case "reproducible at jobs=4" `Quick
            test_batch_reproducible_at_same_jobs;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean campaign jobs-equivalent" `Quick
            test_fuzz_jobs_equivalence_clean;
          Alcotest.test_case "finding jobs-equivalent" `Quick
            test_fuzz_jobs_equivalence_finding;
        ] );
    ]
