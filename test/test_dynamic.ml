(* Tests for the dynamic-graph and churn layer: environment parsing and
   pulse arithmetic, churn schedules, topology generators,
   the pinned checker diagnostics, fault-spec validation, scenario schema
   v2 round-trips, admissible property coverage across all algorithms,
   the armed inadmissible modes, and the model checker's dynamic/churn
   verdicts. *)

open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module Ch = Anon_chaos
module Mc = Anon_mc.Mc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Env: dynamic parsing and pulse arithmetic ------------------------------- *)

let test_env_pulse () =
  (* stability=1: every round is a pulse; stability=3: rounds 1,4,7,... *)
  List.iter (fun r -> check_bool "s=1 all pulse" true (G.Env.pulse ~stability:1 ~round:r))
    [ 1; 2; 3; 7 ];
  List.iter
    (fun (r, want) -> check_bool "s=3" want (G.Env.pulse ~stability:3 ~round:r))
    [ (1, true); (2, false); (3, false); (4, true); (6, false); (7, true) ]

let test_env_of_string_dynamic () =
  let ok spec want =
    match G.Env.of_string spec with
    | Ok env -> check_bool spec true (env = want)
    | Error e -> Alcotest.failf "%s: %s" spec e
  in
  ok "dynamic:3" (G.Env.Dynamic { stability = 3; rooted = true });
  ok "dynamic:1" (G.Env.Dynamic { stability = 1; rooted = true });
  ok "dynamic:2:unrooted" (G.Env.Dynamic { stability = 2; rooted = false });
  List.iter
    (fun bad ->
      match G.Env.of_string bad with
      | Ok _ -> Alcotest.failf "%s should not parse" bad
      | Error _ -> ())
    [ "dynamic"; "dynamic:0"; "dynamic:x"; "dynamic:2:rootless" ]

(* What each environment owes a round: before, at and after GST, and on
   pulse and healed rounds. *)
let test_env_owes () =
  let name = function
    | G.Env.Nothing -> "nothing"
    | G.Env.A_source -> "a source"
    | G.Env.Every_sender -> "every sender"
    | G.Env.Stable_source -> "stable source"
  in
  let owed = Alcotest.testable (fun ppf o -> Format.pp_print_string ppf (name o)) ( = ) in
  let dyn stability rooted = G.Env.Dynamic { stability; rooted } in
  List.iter
    (fun (env, cells) ->
      List.iter
        (fun (round, want) ->
          Alcotest.check owed
            (Printf.sprintf "%s round %d" (G.Env.to_string env) round)
            want (G.Env.owes env ~round))
        cells)
    G.Env.
      [
        (Sync, [ (1, Every_sender); (2, Every_sender); (9, Every_sender) ]);
        (Ms, [ (1, A_source); (3, A_source); (9, A_source) ]);
        ( Es { gst = 3 },
          [ (1, A_source); (2, A_source); (3, Every_sender); (4, Every_sender) ] );
        (Es { gst = 1 }, [ (1, Every_sender); (2, Every_sender) ]);
        ( Ess { gst = 3 },
          [ (1, A_source); (2, A_source); (3, Stable_source); (4, Stable_source) ] );
        (Async, [ (1, Nothing); (3, Nothing); (9, Nothing) ]);
        (* Rooted: obligations everywhere. Unrooted: pulse rounds are free. *)
        (dyn 1 true, [ (1, A_source); (2, A_source); (3, A_source) ]);
        (dyn 1 false, [ (1, Nothing); (2, Nothing) ]);
        ( dyn 2 true,
          [ (1, A_source); (2, Every_sender); (3, A_source); (4, Every_sender) ] );
        (dyn 2 false, [ (1, Nothing); (2, Every_sender); (3, Nothing); (4, Every_sender) ]);
        ( dyn 3 false,
          [ (1, Nothing); (2, Every_sender); (3, Every_sender); (4, Nothing); (7, Nothing) ] );
      ]

(* --- Churn schedules ---------------------------------------------------------- *)

let test_churn_validation () =
  Alcotest.check_raises "pid range"
    (Invalid_argument "Churn.of_events: pid out of range") (fun () ->
      ignore (G.Churn.of_events ~n:2 [ { pid = 2; leave = 1; rejoin = None } ]));
  Alcotest.check_raises "leave >= 1"
    (Invalid_argument "Churn.of_events: leave round must be >= 1") (fun () ->
      ignore (G.Churn.of_events ~n:2 [ { pid = 0; leave = 0; rejoin = None } ]));
  Alcotest.check_raises "rejoin after leave"
    (Invalid_argument "Churn.of_events: rejoin round must be after leave round")
    (fun () ->
      ignore (G.Churn.of_events ~n:2 [ { pid = 0; leave = 3; rejoin = Some 3 } ]));
  Alcotest.check_raises "duplicate pid"
    (Invalid_argument "Churn.of_events: duplicate pid") (fun () ->
      ignore
        (G.Churn.of_events ~n:2
           [
             { pid = 0; leave = 1; rejoin = None };
             { pid = 0; leave = 2; rejoin = None };
           ]))

let test_churn_away_windows () =
  let churn =
    G.Churn.of_events ~n:4
      [
        { pid = 1; leave = 3; rejoin = Some 5 };
        { pid = 2; leave = 2; rejoin = None };
      ]
  in
  check_bool "before leave" false (G.Churn.away churn ~pid:1 ~round:2);
  check_bool "away at leave" true (G.Churn.away churn ~pid:1 ~round:3);
  check_bool "away mid-window" true (G.Churn.away churn ~pid:1 ~round:4);
  check_bool "back at rejoin" false (G.Churn.away churn ~pid:1 ~round:5);
  check_bool "permanent leaver" true (G.Churn.away churn ~pid:2 ~round:100);
  check_bool "stayer never away" false (G.Churn.away churn ~pid:0 ~round:50);
  Alcotest.(check (list int)) "stayers" [ 0; 3 ] (G.Churn.stayers churn);
  check_int "churners" 2 (G.Churn.churners churn);
  check_bool "is_stayer" true (G.Churn.is_stayer churn 0);
  check_bool "not stayer" false (G.Churn.is_stayer churn 2);
  check_int "leaving at 2" 1 (List.length (G.Churn.leaving_at churn ~round:2));
  check_int "rejoining at 5" 1 (List.length (G.Churn.rejoining_at churn ~round:5))

let test_churn_random_bounds () =
  let rng = Rng.make 9 in
  for _ = 1 to 20 do
    let churn = G.Churn.random ~n:5 ~churners:2 ~max_round:6 rng in
    check_int "two churners" 2 (G.Churn.churners churn);
    List.iter
      (fun (ev : G.Churn.event) ->
        check_bool "leave in range" true (ev.leave >= 1 && ev.leave <= 6);
        match ev.rejoin with
        | None -> ()
        | Some r -> check_bool "rejoin after leave" true (r > ev.leave))
      (G.Churn.events churn)
  done

(* --- Topology generators ---------------------------------------------------- *)

let test_topology_rotating_root () =
  let top = G.Topology.rotating_root () in
  (* Round r's root is (r-1) mod n; the star keeps root->everyone and
     everyone->root, drops the rest. *)
  check_bool "root edge out" true (G.Topology.edge top ~n:3 ~round:1 ~src:0 ~dst:2);
  check_bool "edge into root" true (G.Topology.edge top ~n:3 ~round:1 ~src:2 ~dst:0);
  check_bool "non-star edge absent" false
    (G.Topology.edge top ~n:3 ~round:1 ~src:1 ~dst:2);
  check_bool "root advances" true (G.Topology.edge top ~n:3 ~round:2 ~src:1 ~dst:2)

let test_topology_t_interval_static () =
  let top = G.Topology.t_interval ~t:3 () in
  (* Within one interval the graph must not change. *)
  let snapshot round =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun d ->
            if s <> d && G.Topology.edge top ~n:4 ~round ~src:s ~dst:d then
              Some (s, d)
            else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  check_bool "rounds 1-3 identical" true
    (snapshot 1 = snapshot 2 && snapshot 2 = snapshot 3)

(* --- pinned checker diagnostics ------------------------------------------------ *)

let test_no_root_diagnostic_format () =
  let v =
    G.Checker.No_root
      { round = 4; window = 2; senders = [ (0, [ 1; 2 ]); (2, [ 1 ]) ] }
  in
  check_str "no_root"
    "env: round 4 (window 2) root reachability failed — no covering root: p0 \
     late to p1,p2; p2 late to p1"
    (Format.asprintf "%a" G.Checker.pp_violation v)

let test_stability_diagnostic_format () =
  let v =
    G.Checker.Stability_violation { round = 5; window = 2; sender = 1; missing = [ 0; 3 ] }
  in
  check_str "stability"
    "env: round 5 (window 2) stability failed — sender p1 late to p0,p3"
    (Format.asprintf "%a" G.Checker.pp_violation v)

(* --- Fault spec validation ------------------------------------------------------ *)

let invalid what = G.Config_error.Invalid_config { G.Config_error.where = "Fault"; what }

let test_fault_validate_rejects () =
  Alcotest.check_raises "NaN probability"
    (invalid "duplicate probability is NaN") (fun () ->
      Ch.Fault.validate { Ch.Fault.none with duplicate = Float.nan });
  Alcotest.check_raises "probability > 1"
    (invalid "reorder probability 1.5 outside [0, 1]") (fun () ->
      Ch.Fault.validate { Ch.Fault.none with reorder = 1.5 });
  Alcotest.check_raises "negative probability"
    (invalid "extra_delay probability -0.25 outside [0, 1]") (fun () ->
      Ch.Fault.validate { Ch.Fault.none with extra_delay = -0.25 });
  Alcotest.check_raises "negative max_extra"
    (invalid "max_extra must be >= 0 (got -3)") (fun () ->
      Ch.Fault.validate { Ch.Fault.none with max_extra = -3 });
  (* wrap runs the same validation before doing anything. *)
  Alcotest.check_raises "wrap validates"
    (invalid "duplicate probability 2 outside [0, 1]") (fun () ->
      ignore (Ch.Fault.wrap { Ch.Fault.none with duplicate = 2.0 } (G.Adversary.ms ())))

let test_fault_validate_accepts_boundaries () =
  Ch.Fault.validate { Ch.Fault.none with duplicate = 0.0; reorder = 1.0; max_extra = 0 }

(* --- admissible property: dynamic env + churn across all algorithms ------------- *)

let base_case algo : Ch.Scenario.t =
  {
    algo;
    n = 4;
    gst = 6;
    rotation = G.Adversary.Round_robin;
    noise = 0.1;
    horizon =
      (match algo with
      | Ch.Scenario.Es -> 160
      | Ch.Scenario.Ess -> 240
      | Ch.Scenario.Weak_set -> 320
      | Ch.Scenario.Register -> 460);
    seed = 5;
    crashes = [];
    churn = [];
    env = None;
    ops_per_client = 3;
    faults = Ch.Fault.none;
    schedule = None;
  }

let assert_clean label case =
  match Ch.Fuzz.run_case case with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %s" label
      (String.concat "; " (Ch.Fuzz.violation_strings vs))

let test_dynamic_env_admissible_all_algos () =
  (* A rooted dynamic environment (stability 2 and 3) wrapped around every
     algorithm that tolerates environment overrides must stay
     checker-clean. Register's checker assumes stable clients, so it keeps
     its native environment. *)
  List.iter
    (fun algo ->
      List.iter
        (fun stability ->
          List.iter
            (fun seed ->
              let case =
                {
                  (base_case algo) with
                  seed;
                  env = Some (G.Env.Dynamic { stability; rooted = true });
                }
              in
              assert_clean
                (Printf.sprintf "%s s=%d seed=%d" (Ch.Scenario.algo_name algo)
                   stability seed)
                case)
            [ 5; 6; 7 ])
        [ 2; 3 ])
    [ Ch.Scenario.Es; Ch.Scenario.Ess; Ch.Scenario.Weak_set ]

let test_churn_admissible_all_algos () =
  (* The admissible churn regime per algorithm: permanent leaves for the
     consensus algorithms (a leaver is observationally a silent crash;
     rejoiners can legitimately split agreement — see the mc finding test
     below), rejoiners for the join-tolerant weak-set service. Correct
     stayers must still satisfy the checker. *)
  let consensus_churn =
    [
      { G.Churn.pid = 1; leave = 2; rejoin = None };
      { G.Churn.pid = 2; leave = 3; rejoin = None };
    ]
  and weakset_churn =
    [
      { G.Churn.pid = 1; leave = 2; rejoin = Some 4 };
      { G.Churn.pid = 2; leave = 3; rejoin = Some 5 };
    ]
  in
  List.iter
    (fun (algo, churn) ->
      List.iter
        (fun seed ->
          let case = { (base_case algo) with seed; churn } in
          assert_clean
            (Printf.sprintf "%s churn seed=%d" (Ch.Scenario.algo_name algo) seed)
            case)
        [ 5; 6; 7 ])
    [
      (Ch.Scenario.Es, consensus_churn);
      (Ch.Scenario.Ess, consensus_churn);
      (Ch.Scenario.Weak_set, weakset_churn);
    ]

let test_dynamic_churn_crash_combined () =
  (* The full stack at once: dynamic graphs, churn, and a crash, all
     admissible — still clean. *)
  List.iter
    (fun seed ->
      let case =
        {
          (base_case Ch.Scenario.Es) with
          n = 5;
          seed;
          env = Some (G.Env.Dynamic { stability = 2; rooted = true });
          crashes = [ { G.Crash.pid = 4; round = 3; broadcast = G.Crash.Silent } ];
          churn = [ { G.Churn.pid = 1; leave = 2; rejoin = None } ];
        }
      in
      assert_clean (Printf.sprintf "combined seed=%d" seed) case)
    [ 5; 6; 7 ]

let test_sampled_admissible_dynamic_churn () =
  (* What the fuzz campaign actually draws: sampled dynamic + churn cases
     must be clean for a window of seeds. *)
  let rng = Rng.make 123 in
  for _ = 1 to 15 do
    let case = Ch.Scenario.sample ~dynamic:true ~churn:true rng in
    assert_clean (Format.asprintf "%a" Ch.Scenario.pp case) case
  done

(* --- armed inadmissible modes are caught ---------------------------------------- *)

let has_no_root vs =
  List.exists (function G.Checker.No_root _ -> true | _ -> false) vs

let has_stability vs =
  List.exists (function G.Checker.Stability_violation _ -> true | _ -> false) vs

let test_root_starvation_detected () =
  let case =
    {
      (base_case Ch.Scenario.Es) with
      env = Some (G.Env.Dynamic { stability = 2; rooted = true });
      faults =
        {
          Ch.Fault.none with
          inadmissible = Some (Ch.Fault.Root_starvation { from_round = 2 });
        };
    }
  in
  check_bool "No_root flagged" true (has_no_root (Ch.Fuzz.run_case case))

let test_stability_break_detected () =
  let case =
    {
      (base_case Ch.Scenario.Es) with
      env = Some (G.Env.Dynamic { stability = 3; rooted = true });
      faults =
        {
          Ch.Fault.none with
          inadmissible = Some (Ch.Fault.Stability_break { from_round = 2 });
        };
    }
  in
  check_bool "Stability_violation flagged" true
    (has_stability (Ch.Fuzz.run_case case))

let test_armed_modes_noop_on_static_envs () =
  (* The dynamic-only modes must not corrupt a classic-environment run. *)
  List.iter
    (fun mode ->
      let case =
        { (base_case Ch.Scenario.Es) with faults = { Ch.Fault.none with inadmissible = Some mode } }
      in
      assert_clean "no-op on ES" case)
    [
      Ch.Fault.Root_starvation { from_round = 2 };
      Ch.Fault.Stability_break { from_round = 2 };
    ]

(* --- scenario schema v2 ---------------------------------------------------------- *)

let test_scenario_v2_roundtrip () =
  let case =
    {
      (base_case Ch.Scenario.Ess) with
      env = Some (G.Env.Dynamic { stability = 3; rooted = false });
      churn =
        [
          { G.Churn.pid = 0; leave = 2; rejoin = Some 5 };
          { G.Churn.pid = 3; leave = 4; rejoin = None };
        ];
      faults =
        {
          Ch.Fault.none with
          inadmissible = Some (Ch.Fault.Root_starvation { from_round = 3 });
        };
    }
  in
  match Ch.Scenario.of_json (Ch.Scenario.to_json case) with
  | Error e -> Alcotest.failf "round-trip: %s" e
  | Ok back ->
    check_bool "identical" true (back = case);
    check_str "same rendering"
      (Format.asprintf "%a" Ch.Scenario.pp case)
      (Format.asprintf "%a" Ch.Scenario.pp back)

let test_scenario_v1_compat () =
  (* A v1 document (no version field, no env/churn) must still load, with
     the new fields at their defaults — old PR-2/PR-4 repro files keep
     replaying. *)
  let v2 = Ch.Scenario.to_json (base_case Ch.Scenario.Es) in
  let v1 =
    match v2 with
    | Anon_obs.Json.Obj fields ->
      Anon_obs.Json.Obj
        (List.filter (fun (k, _) -> k <> "v" && k <> "env" && k <> "churn") fields)
    | _ -> Alcotest.fail "expected object"
  in
  match Ch.Scenario.of_json v1 with
  | Error e -> Alcotest.failf "v1 decode: %s" e
  | Ok case ->
    check_bool "no env override" true (case.Ch.Scenario.env = None);
    check_int "no churn" 0 (List.length case.Ch.Scenario.churn);
    check_bool "rest preserved" true (case = base_case Ch.Scenario.Es)

let test_scenario_future_version_rejected () =
  let doc =
    match Ch.Scenario.to_json (base_case Ch.Scenario.Es) with
    | Anon_obs.Json.Obj fields ->
      Anon_obs.Json.Obj
        (List.map
           (fun (k, v) -> if k = "v" then (k, Anon_obs.Json.Int 99) else (k, v))
           fields)
    | _ -> Alcotest.fail "expected object"
  in
  match Ch.Scenario.of_json doc with
  | Ok _ -> Alcotest.fail "v99 must be rejected"
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check_bool "mentions the version" true (contains e "v99")

(* --- model checker: dynamic environments and churn budgets ----------------------- *)

let mc_config ?(algo = Mc.Es) ?(n = 2) ?(env = G.Env.Es { gst = 2 }) ?(rounds = 6)
    ?(crashes = 0) ?(churn = 0) ?(armed = false) () =
  {
    Mc.algo;
    n;
    env;
    rounds;
    crashes;
    churn;
    max_delay = 1;
    search = Mc.Bfs;
    armed;
    jobs = Some 1;
    seed = 42;
    ops_per_client = 1;
  }

let test_mc_es_dynamic_verified () =
  (* Stability 2 heals the graph often enough for Alg. 2 to close. *)
  let r =
    Mc.run
      (mc_config ~env:(G.Env.Dynamic { stability = 2; rooted = true }) ~rounds:8 ())
  in
  check_bool "verified" true (r.Mc.verdict = Mc.Verified);
  check_int "no bound cuts" 0 r.Mc.stats.Anon_mc.Explore.bound_branches

let test_mc_ess_rotating_root_stalls () =
  (* Stability 1 rooted = a root that can rotate every round: ESS never
     accumulates a stable source, so within the bound no branch decides —
     and the non-deciding witness replays through the real runner. *)
  let r =
    Mc.run
      (mc_config ~algo:Mc.Ess
         ~env:(G.Env.Dynamic { stability = 1; rooted = true })
         ~rounds:6 ())
  in
  check_bool "bounded" true (r.Mc.verdict = Mc.Bounded);
  check_bool "no safety violation" true (r.Mc.violation = None);
  (match r.Mc.non_deciding with
  | Some (_, _, b) ->
    check_bool "both blocked" true (b.Anon_mc.Explore.b_blocked = [ 0; 1 ])
  | None -> Alcotest.fail "expected a non-deciding witness");
  match r.Mc.witness with
  | Some w -> check_bool "replay confirms" true (w.Ch.Fuzz.violations <> [])
  | None -> Alcotest.fail "expected a witness"

let test_mc_churn_budget_verified () =
  (* Every join/leave schedule of one process still lets ES decide within
     depth 8: rejoiners restart from their input and catch up. *)
  let r = Mc.run (mc_config ~rounds:8 ~churn:1 ()) in
  check_bool "verified" true (r.Mc.verdict = Mc.Verified);
  check_bool "churn schedules explored" true (r.Mc.schedules > 1)

let test_mc_churn_crash_disjoint () =
  (* Crash and churn schedules cross only on disjoint pid sets. At n=2,
     budget 1 each, rounds 2: 1 + 2*2 crash-only + 2*(2+1) churn-only +
     2*2*(2+1) combined = 23 schedules. *)
  let r = Mc.run (mc_config ~rounds:2 ~crashes:1 ~churn:1 ()) in
  check_int "schedule count" 23 r.Mc.schedules

let test_mc_churn_rejected_for_weakset () =
  Alcotest.check_raises "ms-weakset + churn"
    (G.Config_error.Invalid_config
       { where = "Mc.run"; what = "churn is not supported for ms-weakset" })
    (fun () ->
      ignore (Mc.run (mc_config ~algo:Mc.Ms_weakset ~env:G.Env.Ms ~churn:1 ())))

let test_mc_armed_dynamic_violation algo () =
  (* Armed exploration under a rooted dynamic env must surface a No_root
     violation that the checker confirms on replay. *)
  let r =
    Mc.run
      (mc_config ~algo
         ~env:(G.Env.Dynamic { stability = 2; rooted = true })
         ~armed:true ())
  in
  check_bool "violation" true (r.Mc.verdict = Mc.Violation);
  (match r.Mc.violation with
  | Some (_, _, w) ->
    check_bool "No_root reported" true (has_no_root w.Anon_mc.Explore.w_violations)
  | None -> Alcotest.fail "expected a violation");
  match r.Mc.witness with
  | Some w -> check_bool "replay confirms" true (w.Ch.Fuzz.violations <> [])
  | None -> Alcotest.fail "expected a witness"

(* --- the rejoin finding: committed counterexamples --------------------------- *)

(* Anonymous consensus does not tolerate state-resetting rejoiners: a
   process that leaves before its input circulates and rejoins later
   broadcasts the empty PROPOSED set, which erases every receiver's
   WRITTEN intersection for that round — exactly the adoption step that
   otherwise forces all stayers to converge on a decider's value.  The
   model checker rediscovers this split whenever the decide window lies
   strictly before GST (both isolation rounds must be pre-GST, so gst >= 5
   at the earliest even decision round 4).  This is a property of the
   model, not a runner bug; see DESIGN.md section 12. *)

(* Committed repro files live at the workspace root; [dune runtest] runs
   from the test build dir, [dune exec] from the workspace root. *)
let repro_path name =
  let candidates =
    [ Filename.concat "repros" name; Filename.concat "../repros" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let test_finding_mc_rediscovers_split () =
  (* n=3: one churner plus two stayers to split.  A lone stayer (n=2)
     cannot disagree with itself, so the smallest splitting system is 3. *)
  let r =
    Mc.run (mc_config ~n:3 ~env:(G.Env.Es { gst = 5 }) ~rounds:8 ~churn:1 ())
  in
  check_bool "violation" true (r.Mc.verdict = Mc.Violation);
  (match r.Mc.violation with
  | Some (crashes, churn, w) ->
    check_bool "no crashes involved" true (crashes = []);
    check_bool "churn schedule non-empty" true (churn <> []);
    let churned = List.map (fun (e : G.Churn.event) -> e.pid) churn in
    check_bool "split is between stayers" true
      (List.exists
         (function
           | G.Checker.Agreement_violation { p1; p2; _ } ->
             (not (List.mem p1 churned)) && not (List.mem p2 churned)
           | _ -> false)
         w.Anon_mc.Explore.w_violations)
  | None -> Alcotest.fail "expected a violation");
  match r.Mc.witness with
  | Some w -> check_bool "replay confirms" true (w.Ch.Fuzz.violations <> [])
  | None -> Alcotest.fail "expected a witness"

let replay_committed name pred what =
  match Ch.Fuzz.replay ~path:(repro_path name) with
  | Error e -> Alcotest.failf "%s: replay failed: %s" name e
  | Ok r ->
    check_bool (name ^ " matches recorded verdict") true r.Ch.Fuzz.matches;
    check_bool (name ^ " reproduces " ^ what) true
      (List.exists pred r.Ch.Fuzz.actual)

let test_churn_rejoin_split_through_core () =
  (* The committed rejoin-split counterexample, byte-identically through
     the unified core. First the full replay path (runner shell over
     [Step_core]): the rendered violations must equal the stored ones
     exactly. Then the same case driven against the core directly, pinning
     the PR's rejoiner audit: at the rejoin round the stale state and
     mailbox are gone, and what the rejoiner computes and broadcasts is
     exactly [A.initialize] on its input — a fresh process, not a stale
     scratch buffer. *)
  match Ch.Fuzz.replay ~path:(repro_path "churn-rejoin-split.json") with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok r ->
    check_bool "violations byte-identical" true r.Ch.Fuzz.matches;
    let case = r.Ch.Fuzz.case in
    let module A = C.Es_consensus in
    let module Core = G.Step_core.Consensus (A) in
    let inputs =
      Array.of_list (Ch.Scenario.inputs ~n:case.Ch.Scenario.n ~seed:case.Ch.Scenario.seed)
    in
    let adv = Ch.Scenario.adversary case in
    let core =
      Core.create ~inputs ~crash:(Ch.Scenario.crash case)
        ~churn:(Ch.Scenario.churn case) ~env:(G.Adversary.env adv)
    in
    let rejoiner, rejoin_round =
      match case.Ch.Scenario.churn with
      | [ { G.Churn.pid; rejoin = Some r; _ } ] -> (pid, r)
      | _ -> Alcotest.fail "expected a single rejoining churner"
    in
    let rng = Rng.make case.Ch.Scenario.seed in
    let crash_rng = Rng.split rng in
    let decisions = ref [] in
    for k = 1 to case.Ch.Scenario.horizon do
      Core.begin_round core;
      if k = rejoin_round then begin
        check_bool "rejoiner live again" true
          (Core.fate core rejoiner = G.Step_core.Live);
        check_bool "stale state discarded" true (Core.state core rejoiner = None);
        check_int "rejoiner mailbox empty" 0 (Core.mailbox_pending core rejoiner);
        check_bool "no stale inflight" true (Core.inflight core rejoiner = [])
      end;
      let _outgoing =
        Core.compute core ~on_decide:(fun ~pid ~round:_ ~value ->
            decisions := (pid, value) :: !decisions)
      in
      if k = rejoin_round then begin
        let fresh_state, fresh_msg = A.initialize inputs.(rejoiner) in
        (match Core.state core rejoiner with
        | Some st ->
          check_str "rejoiner state is a fresh initialize" (A.state_key fresh_state)
            (A.state_key st)
        | None -> Alcotest.fail "rejoiner has no state after compute");
        match Core.out core rejoiner with
        | Some m ->
          check_str "rejoiner broadcast is the round-1 message" (A.msg_key fresh_msg)
            (A.msg_key m)
        | None -> Alcotest.fail "rejoiner sent nothing at its rejoin round"
      end;
      let plan = G.Adversary.plan adv (Core.ctx core) rng in
      let (_ : G.Dispatch.stats) = Core.deliver core ~plan ~crash_rng in
      ()
    done;
    (* The direct-core run lands on the recorded agreement split. *)
    let decided p =
      List.filter_map (fun (pid, v) -> if pid = p then Some v else None) !decisions
    in
    List.iter
      (function
        | G.Checker.Agreement_violation { p1; v1; p2; v2 } ->
          check_bool "core reproduces the recorded split" true
            (decided p1 = [ v1 ] && decided p2 = [ v2 ])
        | _ -> ())
      r.Ch.Fuzz.actual

let test_finding_committed_repros_replay () =
  replay_committed "churn-rejoin-split.json"
    (function G.Checker.Agreement_violation _ -> true | _ -> false)
    "the agreement split";
  replay_committed "ess-rotating-root-stall.json"
    (function G.Checker.Termination_violation _ -> true | _ -> false)
    "the rotating-root stall"

let () =
  Alcotest.run "dynamic"
    [
      ( "env",
        [
          Alcotest.test_case "pulse arithmetic" `Quick test_env_pulse;
          Alcotest.test_case "of_string dynamic" `Quick test_env_of_string_dynamic;
          Alcotest.test_case "owes table" `Quick test_env_owes;
        ] );
      ( "churn",
        [
          Alcotest.test_case "validation" `Quick test_churn_validation;
          Alcotest.test_case "away windows" `Quick test_churn_away_windows;
          Alcotest.test_case "random bounds" `Quick test_churn_random_bounds;
        ] );
      ( "topology",
        [
          Alcotest.test_case "rotating root" `Quick test_topology_rotating_root;
          Alcotest.test_case "t-interval static" `Quick test_topology_t_interval_static;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "No_root format pinned" `Quick
            test_no_root_diagnostic_format;
          Alcotest.test_case "Stability_violation format pinned" `Quick
            test_stability_diagnostic_format;
        ] );
      ( "fault-validation",
        [
          Alcotest.test_case "rejects malformed" `Quick test_fault_validate_rejects;
          Alcotest.test_case "accepts boundaries" `Quick
            test_fault_validate_accepts_boundaries;
        ] );
      ( "admissible",
        [
          Alcotest.test_case "dynamic env, all algos" `Slow
            test_dynamic_env_admissible_all_algos;
          Alcotest.test_case "churn, all algos" `Slow test_churn_admissible_all_algos;
          Alcotest.test_case "dynamic + churn + crash" `Quick
            test_dynamic_churn_crash_combined;
          Alcotest.test_case "sampled dynamic+churn cases" `Slow
            test_sampled_admissible_dynamic_churn;
        ] );
      ( "finding",
        [
          Alcotest.test_case "mc rediscovers the rejoin split" `Quick
            test_finding_mc_rediscovers_split;
          Alcotest.test_case "committed repros replay" `Quick
            test_finding_committed_repros_replay;
          Alcotest.test_case "rejoin split through the core" `Quick
            test_churn_rejoin_split_through_core;
        ] );
      ( "armed",
        [
          Alcotest.test_case "root starvation detected" `Quick
            test_root_starvation_detected;
          Alcotest.test_case "stability break detected" `Quick
            test_stability_break_detected;
          Alcotest.test_case "no-op on static envs" `Quick
            test_armed_modes_noop_on_static_envs;
        ] );
      ( "schema",
        [
          Alcotest.test_case "v2 round-trip" `Quick test_scenario_v2_roundtrip;
          Alcotest.test_case "v1 compatibility" `Quick test_scenario_v1_compat;
          Alcotest.test_case "future version rejected" `Quick
            test_scenario_future_version_rejected;
        ] );
      ( "mc",
        [
          Alcotest.test_case "ES dynamic:2 verified" `Quick test_mc_es_dynamic_verified;
          Alcotest.test_case "ESS rotating root stalls" `Quick
            test_mc_ess_rotating_root_stalls;
          Alcotest.test_case "churn budget verified" `Quick
            test_mc_churn_budget_verified;
          Alcotest.test_case "crash x churn disjoint" `Quick
            test_mc_churn_crash_disjoint;
          Alcotest.test_case "churn rejected for weak-set" `Quick
            test_mc_churn_rejected_for_weakset;
          Alcotest.test_case "armed dynamic violation" `Quick
            (test_mc_armed_dynamic_violation Mc.Es);
          Alcotest.test_case "armed dynamic violation (weak set)" `Quick
            (test_mc_armed_dynamic_violation Mc.Ms_weakset);
        ] );
    ]
