(* Tests for Algorithm 4 (the weak-set in MS) and the service runner. *)

open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module Ws = C.Weak_set_ms
module Runner = G.Service_runner.Make (Ws)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let vset = Value.set_of_list
let inbox ?(fresh = []) current = { G.Intf.current; fresh = Lazy.from_val fresh }

(* --- unit-level service semantics --------------------------------------------- *)

let test_initialize () =
  let st, m = Ws.initialize () in
  check_bool "empty message" true (Value.Set.is_empty m);
  check_bool "no pending add" false (Ws.add_pending st);
  check_bool "empty get" true (Value.Set.is_empty (Ws.get st))

let test_add_sets_block () =
  let st, _ = Ws.initialize () in
  let st = Ws.add st 5 in
  check_bool "blocked" true (Ws.add_pending st);
  Alcotest.(check (option int)) "pending value" (Some 5) (Ws.pending_value st);
  check_bool "value locally visible" true (Value.Set.mem 5 (Ws.get st))

let test_add_twice_rejected () =
  let st, _ = Ws.initialize () in
  let st = Ws.add st 5 in
  Alcotest.check_raises "one add at a time"
    (Invalid_argument "Weak_set_ms.add: an add is already pending") (fun () ->
      ignore (Ws.add st 6))

let test_block_clears_when_written () =
  let st, _ = Ws.initialize () in
  let st = Ws.add st 5 in
  (* Not every message contains 5 yet: stays blocked. *)
  let st, _ = Ws.compute st ~round:1 ~inbox:(inbox [ vset [ 5 ]; vset [ 7 ] ]) in
  check_bool "still blocked" true (Ws.add_pending st);
  (* All messages contain 5: the value is written, the add completes. *)
  let st, _ = Ws.compute st ~round:2 ~inbox:(inbox [ vset [ 5 ]; vset [ 5; 7 ] ]) in
  check_bool "unblocked" false (Ws.add_pending st)

let test_union_includes_late_messages () =
  let st, _ = Ws.initialize () in
  (* Alg. 4 line 15 unions over ALL rounds heard so far — late arrivals
     included (they show up in [fresh]). *)
  let st, _ =
    Ws.compute st ~round:3
      ~inbox:(inbox ~fresh:[ (1, vset [ 42 ]); (3, vset [ 1 ]) ] [ vset [ 1 ] ])
  in
  check_bool "late value in PROPOSED" true (Value.Set.mem 42 (Ws.get st))

(* --- end-to-end runs ------------------------------------------------------------ *)

let run_workload ?(n = 5) ?(failures = 0) ?(seed = 3) ?(horizon = 150) ?adversary
    workload =
  let rng = Rng.make (seed + 77) in
  let crash = G.Crash.random ~n ~failures ~max_round:(horizon / 2) rng in
  let adversary = Option.value ~default:(G.Adversary.ms ()) adversary in
  let config =
    { G.Service_runner.n; crash; churn = G.Churn.none ~n; adversary; horizon; seed }
  in
  (Runner.run config ~workload, crash)

let test_adds_complete () =
  let workload = List.init 5 (fun pid -> (pid, [ (2, G.Service_runner.Do_add (100 + pid)) ])) in
  let out, _ = run_workload workload in
  check_int "five adds" 5 (List.length out.adds);
  List.iter
    (fun (a : G.Service_runner.add_record) ->
      check_bool "completed" true (a.completed_round <> None))
    out.adds

let test_get_sees_completed_adds () =
  let workload =
    [ (0, [ (2, G.Service_runner.Do_add 42) ]); (1, [ (60, G.Service_runner.Do_get) ]) ]
  in
  let out, _ = run_workload ~n:3 workload in
  let gets =
    List.filter_map
      (function G.Checker.Ws_get g -> Some g | G.Checker.Ws_add _ -> None)
      out.ops
  in
  check_int "one get" 1 (List.length gets);
  List.iter
    (fun (g : G.Checker.ws_get) ->
      check_bool "sees 42" true (Value.Set.mem 42 g.get_result))
    gets

let test_semantics_over_seeds () =
  List.iter
    (fun seed ->
      let rng = Rng.make seed in
      let n = 2 + Rng.int rng 6 in
      let workload =
        G.Service_runner.random_workload ~n ~ops_per_client:6 ~max_start:50
          ~value_range:100_000 rng
      in
      let out, crash =
        run_workload ~n ~failures:(Rng.int rng n) ~seed
          ~adversary:(G.Adversary.ms ~rotation:G.Adversary.Round_robin ~noise:0.2 ())
          workload
      in
      Alcotest.(check (list string))
        (Printf.sprintf "no violations (seed %d)" seed)
        []
        (List.map (Format.asprintf "%a" G.Checker.pp_violation)
           (G.Checker.check_weak_set ~correct:(G.Crash.correct crash) out.ops)))
    (List.init 25 (fun i -> 900 + i))

let test_minimal_ms_still_lively () =
  (* Even with zero extra links, every add by a correct process
     completes. *)
  let n = 6 in
  let workload = List.init n (fun pid -> (pid, [ (2, G.Service_runner.Do_add (7 * pid)) ])) in
  let out, crash =
    run_workload ~n ~horizon:200
      ~adversary:(G.Adversary.ms ~rotation:G.Adversary.Round_robin ~noise:0.0 ())
      workload
  in
  List.iter
    (fun (a : G.Service_runner.add_record) ->
      if G.Crash.is_correct crash a.client then
        check_bool "correct client's add completed" true (a.completed_round <> None))
    out.adds

let test_op_clock_ordering () =
  let workload =
    [ (0, [ (2, G.Service_runner.Do_add 1); (3, G.Service_runner.Do_get) ]) ]
  in
  let out, _ = run_workload ~n:3 workload in
  List.iter
    (fun op ->
      match op with
      | G.Checker.Ws_add a -> (
        match a.add_completed with
        | Some c -> check_bool "invoked before completed" true (a.add_invoked < c)
        | None -> ())
      | G.Checker.Ws_get g ->
        check_bool "get instantaneous" true (g.get_invoked = g.get_completed))
    out.ops

let test_sequential_client () =
  (* The second op of a client starts only after the first completed. *)
  let workload =
    [ (0, [ (2, G.Service_runner.Do_add 1); (2, G.Service_runner.Do_add 2) ]) ]
  in
  let out, _ = run_workload ~n:4 workload in
  match out.adds with
  | [ a1; a2 ] ->
    let c1 = Option.get a1.completed_round in
    check_bool "second add after first completes" true (a2.invoked_round >= c1)
  | adds -> Alcotest.fail (Printf.sprintf "expected 2 adds, got %d" (List.length adds))

let () =
  Alcotest.run "weak-set-ms"
    [
      ( "service",
        [
          Alcotest.test_case "initialize" `Quick test_initialize;
          Alcotest.test_case "add sets BLOCK" `Quick test_add_sets_block;
          Alcotest.test_case "one add at a time" `Quick test_add_twice_rejected;
          Alcotest.test_case "BLOCK clears when written" `Quick test_block_clears_when_written;
          Alcotest.test_case "late messages unioned" `Quick test_union_includes_late_messages;
        ] );
      ( "runs",
        [
          Alcotest.test_case "adds complete" `Quick test_adds_complete;
          Alcotest.test_case "gets see completed adds" `Quick test_get_sees_completed_adds;
          Alcotest.test_case "semantics over seeds" `Quick test_semantics_over_seeds;
          Alcotest.test_case "minimal MS liveness" `Quick test_minimal_ms_still_lively;
          Alcotest.test_case "op clock ordering" `Quick test_op_clock_ordering;
          Alcotest.test_case "sequential clients" `Quick test_sequential_client;
        ] );
    ]
