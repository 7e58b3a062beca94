(* Tests for Algorithm 2 (ES consensus): unit-level compute semantics,
   exact replays, liveness tracking GST, MS non-termination, safety under
   randomized adversarial sweeps. *)

open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module R = G.Runner.Make (C.Es_consensus)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let vset = Value.set_of_list

let inbox current = { G.Intf.current; fresh = Lazy.from_val [] }

(* --- unit-level compute ------------------------------------------------------ *)

let test_initialize () =
  let st, m = C.Es_consensus.initialize 7 in
  check_bool "round-1 message is empty" true (Value.Set.is_empty m);
  check_int "VAL" 7 (C.Es_consensus.current_val st);
  check_bool "PROPOSED empty" true (Value.Set.is_empty (C.Es_consensus.proposed st))

let test_compute_written_intersection () =
  let st, _ = C.Es_consensus.initialize 7 in
  let st, _, dec =
    C.Es_consensus.compute st ~round:1 ~inbox:(inbox [ vset [ 1; 2 ]; vset [ 2; 3 ] ])
  in
  check_bool "no decision in odd round" true (dec = None);
  Alcotest.(check (list int)) "WRITTEN = intersection" [ 2 ]
    (Value.Set.elements (C.Es_consensus.written st));
  Alcotest.(check (list int)) "PROPOSED = union" [ 1; 2; 3 ]
    (Value.Set.elements (C.Es_consensus.proposed st))

let test_compute_even_adopts_max_written () =
  let st, _ = C.Es_consensus.initialize 1 in
  let st, _, _ = C.Es_consensus.compute st ~round:1 ~inbox:(inbox [ vset [ 5; 9 ] ]) in
  let st, m, dec =
    C.Es_consensus.compute st ~round:2 ~inbox:(inbox [ vset [ 5; 9 ] ])
  in
  check_bool "no decision yet" true (dec = None);
  check_int "VAL := max(WRITTEN)" 9 (C.Es_consensus.current_val st);
  Alcotest.(check (list int)) "PROPOSED reset to {VAL}" [ 9 ] (Value.Set.elements m)

let test_compute_decides () =
  (* Drive one process with constant {4} inboxes: round 1 sets
     WRITTENOLD = {4}, and the guard fires at the first even round. *)
  let st, _ = C.Es_consensus.initialize 4 in
  let feed st round = C.Es_consensus.compute st ~round ~inbox:(inbox [ vset [ 4 ] ]) in
  let st, _, d1 = feed st 1 in
  let _, _, d2 = feed st 2 in
  check_bool "no decision in the odd round" true (d1 = None);
  Alcotest.(check (option int)) "decides own value at 2" (Some 4) d2

let test_no_decision_while_written_old_differs () =
  let st, _ = C.Es_consensus.initialize 4 in
  let st, _, _ = C.Es_consensus.compute st ~round:1 ~inbox:(inbox [ vset [ 4; 5 ] ]) in
  let _, _, dec = C.Es_consensus.compute st ~round:2 ~inbox:(inbox [ vset [ 4 ] ]) in
  check_bool "guard blocked by WRITTENOLD" true (dec = None)

(* --- exact replay under full synchrony --------------------------------------- *)

let test_sync_replay () =
  (* n = 4, distinct values, fully synchronous: everyone's WRITTEN at round
     4 is the full value set, all adopt the max and decide it at round 6. *)
  let config =
    G.Runner.default_config ~horizon:20 ~inputs:[ 3; 1; 4; 2 ]
      ~crash:(G.Crash.none ~n:4) (G.Adversary.sync ())
  in
  let out = R.run config in
  check_bool "all decided" true out.all_correct_decided;
  List.iter
    (fun (_, round, v) ->
      check_int "decide max input" 4 v;
      check_int "at round 6" 6 round)
    out.decisions

let test_sync_same_inputs_decide_fast () =
  (* All proposing the same value: written immediately, decide at round 4. *)
  let config =
    G.Runner.default_config ~horizon:20 ~inputs:[ 5; 5; 5 ]
      ~crash:(G.Crash.none ~n:3) (G.Adversary.sync ())
  in
  let out = R.run config in
  List.iter (fun (_, round, v) -> check_int "value" 5 v; check_int "round 4" 4 round)
    out.decisions;
  check_int "everyone" 3 (List.length out.decisions)

(* --- liveness tracks GST ------------------------------------------------------ *)

let ordered n = List.init n (fun i -> i + 1)

let test_blocking_tracks_gst () =
  List.iter
    (fun gst ->
      let config =
        G.Runner.default_config ~horizon:400 ~inputs:(ordered 6)
          ~crash:(G.Crash.none ~n:6)
          (G.Adversary.es_blocking ~gst ())
      in
      let out = R.run config in
      match G.Runner.decision_round out with
      | None -> Alcotest.fail "must decide after GST"
      | Some r ->
        check_bool "no decision before GST" true (r >= gst);
        check_bool "decision within GST+4" true (r <= gst + 4))
    [ 6; 20; 50 ]

let test_ms_never_decides () =
  let config =
    G.Runner.default_config ~horizon:500 ~inputs:(ordered 4)
      ~crash:(G.Crash.none ~n:4)
      (G.Adversary.es_blocking ~gst:max_int ())
  in
  let out = R.run config in
  check_bool "no decision in pure MS" false out.all_correct_decided;
  check_int "still safe" 0
    (List.length (G.Checker.check_consensus ~expect_termination:false out.trace));
  check_int "schedule admissible" 0 (List.length (G.Checker.check_env out.trace))

(* --- safety sweeps -------------------------------------------------------------- *)

let sweep_one (module A : G.Intf.ALGORITHM) seed =
  let rng = Rng.make seed in
  let n = 2 + Rng.int rng 8 in
  let inputs = Rng.shuffle rng (List.init n (fun i -> i + 1)) in
  let failures = Rng.int rng (n + 1) in
  let crash = G.Crash.random ~n ~failures ~max_round:40 (Rng.split rng) in
  let adversary =
    match Rng.int rng 4 with
    | 0 -> G.Adversary.es ~gst:(1 + Rng.int rng 40) ~noise:(Rng.float rng 0.5) ()
    | 1 ->
      G.Adversary.es ~gst:(1 + Rng.int rng 40) ~noise:(Rng.float rng 0.3)
        ~max_delay:(1 + Rng.int rng 40) ()
    | 2 -> G.Adversary.es_blocking ~gst:(1 + Rng.int rng 60) ()
    | _ -> G.Adversary.sync ()
  in
  let config = G.Runner.default_config ~horizon:250 ~seed ~inputs ~crash adversary in
  let module Run = G.Runner.Make (A) in
  let out = Run.run config in
  G.Checker.check_consensus ~expect_termination:false out.trace
  @ G.Checker.check_env out.trace

let prop_es_safety =
  QCheck.Test.make ~name:"ES safety + admissibility over random adversarial runs"
    ~count:150 QCheck.small_int
    (fun seed -> sweep_one (module C.Es_consensus) seed = [])

let test_es_terminates_under_es () =
  (* Termination: for every seed, an ES-grade schedule decides. *)
  List.iter
    (fun seed ->
      let rng = Rng.make seed in
      let n = 3 + Rng.int rng 6 in
      let inputs = Rng.shuffle rng (List.init n (fun i -> i + 1)) in
      let crash = G.Crash.random ~n ~failures:(Rng.int rng n) ~max_round:20 (Rng.split rng) in
      let config =
        G.Runner.default_config ~horizon:300 ~seed ~inputs ~crash
          (G.Adversary.es ~gst:(1 + Rng.int rng 30) ~noise:0.2 ())
      in
      let out = R.run config in
      check_bool "terminates" true out.all_correct_decided)
    (List.init 40 (fun i -> 600 + i))

(* --- the no-guard ablation ----------------------------------------------------- *)

let test_no_guard_vs_guard_literal_schedule () =
  (* Regression pin of experiment A2: under the literal-§2.3 schedule a
     faulty isolated proposer splits the decision, guard or no guard. *)
  let run (module A : G.Intf.ALGORITHM) =
    let crash =
      G.Crash.of_events ~n:3
        [ { G.Crash.pid = 0; round = 12; broadcast = G.Crash.Silent } ]
    in
    let config =
      G.Runner.default_config ~horizon:60 ~seed:1 ~inputs:[ 9; 1; 1 ] ~crash
        (Anon_harness.Exp_ablations.a2_adversary ())
    in
    let module Run = G.Runner.Make (A) in
    Run.run config
  in
  let original = run (module C.Es_consensus) in
  let variant = run (module C.Es_consensus.No_written_old_guard) in
  let p0_round out =
    List.find_map
      (fun (p, r, _) -> if p = 0 then Some r else None)
      out.G.Runner.decisions
  in
  Alcotest.(check (option int)) "guarded p0 decides at 4" (Some 4) (p0_round original);
  Alcotest.(check (option int)) "unguarded p0 decides at 4" (Some 4) (p0_round variant);
  List.iter
    (fun out ->
      check_bool "uniform agreement broken under the literal model" true
        (G.Checker.check_consensus ~expect_termination:false out.G.Runner.trace <> []);
      check_bool "schedule inadmissible under the strengthened model" true
        (G.Checker.check_env out.G.Runner.trace <> []))
    [ original; variant ]

(* --- state invariants (observed every round of adversarial runs) ----------- *)

let observe_invariants ~seed =
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let rng = Rng.make seed in
  let n = 3 + Rng.int rng 6 in
  let inputs = Rng.shuffle rng (List.init n (fun i -> i + 1)) in
  let observe ~pid ~round st =
    let value = C.Es_consensus.current_val st in
    let proposed = C.Es_consensus.proposed st in
    let written = C.Es_consensus.written st in
    if not (List.mem value inputs) then note "p%d r%d: VAL %d not an input" pid round value;
    if round >= 2 && round mod 2 = 0 && not (Value.Set.equal proposed (Value.Set.singleton value))
    then
      (* After an even compute (without decision) PROPOSED = {VAL}. *)
      note "p%d r%d: even-round PROPOSED not {VAL}" pid round;
    if
      (not (Value.Set.is_empty written))
      && not (Value.Set.for_all (fun v -> List.mem v inputs) written)
    then note "p%d r%d: WRITTEN contains a non-input" pid round
  in
  let crash = G.Crash.random ~n ~failures:(Rng.int rng n) ~max_round:20 (Rng.split rng) in
  let config =
    G.Runner.default_config ~horizon:200 ~seed ~inputs ~crash
      (G.Adversary.es ~gst:(1 + Rng.int rng 20) ~noise:0.3 ())
  in
  ignore (R.run ~observe config);
  List.rev !violations

let test_state_invariants () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "invariants (seed %d)" seed)
        [] (observe_invariants ~seed))
    (List.init 25 (fun i -> 820 + i))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "es-consensus"
    [
      ( "compute",
        [
          Alcotest.test_case "initialize" `Quick test_initialize;
          Alcotest.test_case "written intersection" `Quick test_compute_written_intersection;
          Alcotest.test_case "adopt max written" `Quick test_compute_even_adopts_max_written;
          Alcotest.test_case "decides" `Quick test_compute_decides;
          Alcotest.test_case "written-old guard" `Quick
            test_no_decision_while_written_old_differs;
        ] );
      ( "replay",
        [
          Alcotest.test_case "sync distinct values" `Quick test_sync_replay;
          Alcotest.test_case "sync same values" `Quick test_sync_same_inputs_decide_fast;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "tracks GST" `Quick test_blocking_tracks_gst;
          Alcotest.test_case "MS never decides (FLP)" `Quick test_ms_never_decides;
          Alcotest.test_case "terminates under ES" `Quick test_es_terminates_under_es;
        ] );
      ( "safety",
        [
          qc prop_es_safety;
          Alcotest.test_case "state invariants" `Quick test_state_invariants;
          Alcotest.test_case "A2 literal-model pin" `Quick
            test_no_guard_vs_guard_literal_schedule;
        ] );
    ]
