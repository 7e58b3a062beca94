(* Tests for the chaos layer: fault-plan admissibility, the checker
   catching deliberately inadmissible schedules, the fuzzer's shrinking,
   and the JSON repro/replay loop. *)

open Anon_kernel
module G = Anon_giraf
module Ch = Anon_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- crash-schedule shapes -------------------------------------------------- *)

let test_burst_crashes () =
  let rng = Rng.make 11 in
  let evs = Ch.Fault.burst_crashes ~n:8 ~failures:5 ~at:10 ~width:3 rng in
  check_int "count" 5 (List.length evs);
  let pids = List.map (fun (ev : G.Crash.event) -> ev.pid) evs in
  check_int "distinct pids" 5 (List.length (List.sort_uniq compare pids));
  List.iter
    (fun (ev : G.Crash.event) ->
      check_bool "round in window" true (ev.round >= 10 && ev.round <= 13))
    evs;
  (* a valid schedule for Crash.of_events *)
  ignore (G.Crash.of_events ~n:8 evs)

let test_cascade_crashes () =
  let rng = Rng.make 12 in
  let evs = Ch.Fault.cascade_crashes ~n:6 ~failures:4 ~start:3 ~gap:5 rng in
  check_int "count" 4 (List.length evs);
  let rounds = List.map (fun (ev : G.Crash.event) -> ev.round) evs in
  Alcotest.(check (list int)) "arithmetic rounds" [ 3; 8; 13; 18 ] rounds;
  Alcotest.check_raises "too many failures"
    (Invalid_argument "Fault: 7 failures among 6 processes") (fun () ->
      ignore (Ch.Fault.cascade_crashes ~n:6 ~failures:7 ~start:1 ~gap:1 rng))

(* --- admissible wrapping ---------------------------------------------------- *)

(* Heavy admissible fault intensities on every algorithm: the wrapped
   adversary must still satisfy its declared environment and the
   algorithms must stay correct and live. *)
let heavy_faults =
  {
    Ch.Fault.duplicate = 0.5;
    extra_delay = 0.6;
    max_extra = 4;
    reorder = 0.6;
    inadmissible = None;
  }

let base_case algo : Ch.Scenario.t =
  {
    algo;
    n = 4;
    gst = 6;
    rotation = G.Adversary.Round_robin;
    noise = 0.1;
    horizon =
      (match algo with
      | Ch.Scenario.Es -> 80
      | Ch.Scenario.Ess -> 160
      | Ch.Scenario.Weak_set -> 240
      | Ch.Scenario.Register -> 460);
    seed = 5;
    crashes = [];
    churn = [];
    env = None;
    ops_per_client = 4;
    faults = heavy_faults;
    schedule = None;
  }

let test_wrap_admissible_all_algos () =
  List.iter
    (fun algo ->
      List.iter
        (fun seed ->
          let case = { (base_case algo) with seed } in
          match Ch.Fuzz.run_case case with
          | [] -> ()
          | vs ->
            Alcotest.failf "%s seed %d under heavy admissible faults: %s"
              (Ch.Scenario.algo_name algo) seed
              (String.concat "; " (Ch.Fuzz.violation_strings vs)))
        [ 5; 6; 7 ])
    Ch.Scenario.all_algos

let test_wrap_noop_identity () =
  (* A no-op spec returns the adversary unchanged — same plans, no rename. *)
  let adv = G.Adversary.ms () in
  let wrapped = Ch.Fault.wrap Ch.Fault.none adv in
  Alcotest.(check string) "same name" (G.Adversary.name adv) (G.Adversary.name wrapped)

(* The admissible injectors change the inner plans as they promise. Each
   round, the inner adversary and its wrapper plan from copies of one RNG
   (the wrapper draws after the inner adversary), so the two plans differ
   only by what was injected. *)
let test_wrap_injects_faults () =
  let all = List.init 4 Fun.id in
  let inner = G.Adversary.ms () in
  let plans spec =
    let wrapped = Ch.Fault.wrap spec inner in
    List.init 20 (fun i ->
        let ctx =
          { G.Adversary.round = i + 1; senders = all; obligated = all; correct = all;
            alive = all }
        in
        let rng = Rng.make (100 + i) in
        let copy = Rng.copy rng in
        (ctx.round, G.Adversary.plan inner ctx rng, G.Adversary.plan wrapped ctx copy))
  in
  let links (p : G.Adversary.plan) =
    List.fold_left (fun acc (_, ds) -> acc + List.length ds) 0 p.deliveries
  in
  let past k (p : G.Adversary.plan) =
    List.exists
      (fun (_, ds) -> List.exists (fun (d : G.Adversary.delivery) -> d.arrival > k + 3) ds)
      p.deliveries
  in
  let duplicated = plans { Ch.Fault.none with duplicate = 0.5 } in
  check_bool "duplicates add links" true
    (List.exists (fun (_, a, b) -> links b > links a) duplicated);
  let delayed = plans { Ch.Fault.none with extra_delay = 0.6 } in
  check_bool "extra delays keep every link" true
    (List.for_all (fun (_, a, b) -> links b = links a) delayed);
  check_bool "inner arrivals within round + 3" false
    (List.exists (fun (k, a, _) -> past k a) delayed);
  check_bool "an extra delay lands past round + 3" true
    (List.exists (fun (k, _, b) -> past k b) delayed)

(* --- inadmissible modes are caught ------------------------------------------ *)

let has_tag want vs =
  List.exists
    (fun v ->
      match (want, v) with
      | `No_source, G.Checker.No_source _ -> true
      | `Not_timely, G.Checker.Source_not_timely _ -> true
      | `Unstable, G.Checker.Unstable_source _ -> true
      | _ -> false)
    vs

let test_drop_obligated_detected () =
  let case =
    {
      (base_case Ch.Scenario.Es) with
      faults =
        { Ch.Fault.none with inadmissible = Some (Ch.Fault.Drop_obligated { from_round = 2 }) };
    }
  in
  let vs = Ch.Fuzz.run_case case in
  check_bool "env violation found" true
    (has_tag `No_source vs || has_tag `Not_timely vs)

let test_unstable_source_detected () =
  let case =
    {
      (base_case Ch.Scenario.Ess) with
      faults =
        { Ch.Fault.none with inadmissible = Some (Ch.Fault.Unstable_source { from_round = 2 }) };
    }
  in
  let vs = Ch.Fuzz.run_case case in
  check_bool "stability violation found" true (has_tag `Unstable vs)

(* --- map_plan over scripted adversaries --------------------------------------- *)

(* The chaos layer's wrapping hook composed with a fully scripted inner
   adversary: the wrapper must inherit the declared environment verbatim,
   and a deliberately inadmissible transformation must still be flagged by
   the trace checker. *)

let test_map_plan_scripted_env () =
  let mk env =
    G.Adversary.scripted ~name:"script" ~env (fun ctx _rng ->
        G.Adversary.timely_all ctx)
  in
  List.iter
    (fun env ->
      let base = mk env in
      let wrapped = G.Adversary.map_plan (fun _ctx _rng p -> p) base in
      check_bool "env preserved" true (G.Adversary.env wrapped = env);
      Alcotest.(check string)
        "name preserved by default" (G.Adversary.name base)
        (G.Adversary.name wrapped);
      let renamed =
        G.Adversary.map_plan ~rename:(fun n -> n ^ "+noop") (fun _ _ p -> p) base
      in
      check_bool "env preserved under rename" true (G.Adversary.env renamed = env);
      Alcotest.(check string) "rename applied" "script+noop"
        (G.Adversary.name renamed))
    [ G.Env.Ms; G.Env.Es { gst = 4 }; G.Env.Ess { gst = 3 }; G.Env.Sync ]

let test_map_plan_scripted_inadmissible () =
  (* The inner script is fully synchronous (admissible in MS); the wrapper
     pushes every delivery one round late from round 2 on and erases the
     source designation — the checker must catch the hole. *)
  let base =
    G.Adversary.scripted ~name:"script" ~env:G.Env.Ms (fun ctx _rng ->
        G.Adversary.timely_all ctx)
  in
  let sabotage (ctx : G.Adversary.ctx) _rng (p : G.Adversary.plan) =
    if ctx.round < 2 then p
    else
      {
        G.Adversary.source = None;
        deliveries =
          List.map
            (fun (sender, ds) ->
              ( sender,
                List.map
                  (fun (d : G.Adversary.delivery) ->
                    { d with G.Adversary.arrival = ctx.round + 1 })
                  ds ))
            p.G.Adversary.deliveries;
      }
  in
  let wrapped = G.Adversary.map_plan ~rename:(fun n -> n ^ "+late") sabotage base in
  check_bool "declared env unchanged by sabotage" true
    (G.Adversary.env wrapped = G.Env.Ms);
  let config =
    G.Runner.default_config ~horizon:12 ~seed:3 ~inputs:[ 2; 7; 5 ]
      ~crash:(G.Crash.none ~n:3) wrapped
  in
  let module R = G.Runner.Make (Anon_consensus.Es_consensus) in
  let out = R.run config in
  let vs = G.Checker.check_env out.G.Runner.trace in
  check_bool "checker flags the transformed schedule" true
    (has_tag `No_source vs || has_tag `Not_timely vs)

(* --- scenario JSON ------------------------------------------------------------ *)

let test_scenario_json_roundtrip () =
  let rng = Rng.make 99 in
  for i = 1 to 50 do
    let case = Ch.Scenario.sample ~inadmissible:(i mod 3 = 0) rng in
    let encoded = Anon_obs.Json.to_string (Ch.Scenario.to_json case) in
    match Anon_obs.Json.of_string encoded with
    | Error e -> Alcotest.failf "case %d: parse error %s" i e
    | Ok j -> (
      match Ch.Scenario.of_json j with
      | Error e -> Alcotest.failf "case %d: decode error %s" i e
      | Ok case' -> check_bool "roundtrip equal" true (case = case'))
  done

(* --- campaigns ----------------------------------------------------------------- *)

(* Acceptance: 200 admissible runs at seed 42 find nothing. *)
let test_campaign_admissible_clean () =
  let report = Ch.Fuzz.campaign ~runs:200 ~seed:42 () in
  check_int "all runs executed" 200 report.runs_done;
  check_bool "no violations" true (report.finding = None)

(* Acceptance: an inadmissible campaign finds a violation, shrinks it to a
   smaller-or-equal case, writes a JSON repro, and replaying the repro
   reproduces the identical violation. *)
let test_campaign_inadmissible_repro_replay () =
  let report = Ch.Fuzz.campaign ~inadmissible:true ~runs:50 ~seed:1 () in
  match report.finding with
  | None -> Alcotest.fail "inadmissible campaign found nothing"
  | Some f ->
    check_bool "violations nonempty" true (f.violations <> []);
    check_bool "shrink explored candidates" true (f.explored > 0);
    check_bool "n shrunk or equal" true (f.case.n <= f.original.n);
    check_bool "horizon shrunk or equal" true (f.case.horizon <= f.original.horizon);
    check_bool "crashes shrunk or equal" true
      (List.length f.case.crashes <= List.length f.original.crashes);
    let path = Filename.temp_file "anon_chaos_repro" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Anon_obs.Json.to_string (Ch.Fuzz.repro_json f)));
        match Ch.Fuzz.replay ~path with
        | Error e -> Alcotest.failf "replay failed: %s" e
        | Ok r ->
          check_bool "replayed case equals shrunk case" true (r.case = f.case);
          Alcotest.(check (list string))
            "identical violations"
            (Ch.Fuzz.violation_strings f.violations)
            (Ch.Fuzz.violation_strings r.actual);
          check_bool "matches" true r.matches)

let test_replay_rejects_garbage () =
  (match Ch.Fuzz.replay ~path:"/nonexistent/repro.json" with
  | Ok _ -> Alcotest.fail "expected error on missing file"
  | Error _ -> ());
  (match Ch.Fuzz.replay_json (Anon_obs.Json.Obj []) with
  | Ok _ -> Alcotest.fail "expected error on empty object"
  | Error _ -> ());
  (* An environment the runners would refuse, or a field no sampler could
     write, is refused when the case is decoded, before an adversary is
     built from it. *)
  let rng = Rng.make 5 in
  let dynamic stability = Some (G.Env.Dynamic { stability; rooted = true }) in
  let crash_ev pid round = { G.Crash.pid; round; broadcast = G.Crash.Silent } in
  let churn_ev pid leave rejoin = { G.Churn.pid; leave; rejoin } in
  List.iter
    (fun (algo, edit, expected) ->
      let case = edit (Ch.Scenario.sample ~algo rng) in
      let repro =
        Anon_obs.Json.Obj
          [ ("case", Ch.Scenario.to_json case); ("violations", Anon_obs.Json.List []) ]
      in
      match Ch.Fuzz.replay_json repro with
      | Ok _ -> Alcotest.failf "expected %S" expected
      | Error e -> Alcotest.(check string) "decode error" expected e)
    Ch.Scenario.
      [
        (Es, (fun c -> { c with env = dynamic 0 }), "env: stability must be >= 1 (got 0)");
        ( Weak_set,
          (fun c -> { c with env = dynamic 0 }),
          "env: stability must be >= 1 (got 0)" );
        (Es, (fun c -> { c with env = dynamic (-3) }), "env: stability must be >= 1 (got -3)");
        ( Weak_set,
          (fun c -> { c with env = dynamic (-3) }),
          "env: stability must be >= 1 (got -3)" );
        ( Weak_set,
          (fun c ->
            { c with env = None; schedule = Some { sched_env = G.Env.Es { gst = 0 }; plans = [] } }),
          "schedule.env: gst must be >= 1 (got 0)" );
        (Es, (fun c -> { c with n = -2 }), "n must be >= 1 (got -2)");
        (Register, (fun c -> { c with ops_per_client = -1 }), "ops_per_client must be >= 0 (got -1)");
        (Es, (fun c -> { c with noise = 2.0 }), "noise must be in [0, 1] (got 2)");
        (Ess, (fun c -> { c with noise = -1.0 }), "noise must be in [0, 1] (got -1)");
        ( Es,
          (fun c -> { c with n = 3; rotation = G.Adversary.Pinned 99 }),
          "rotation: pinned pid 99 outside [0, 3)" );
        (Es, (fun c -> { c with n = 3; crashes = [ crash_ev 3 2 ] }), "crashes: pid out of range");
        (Ess, (fun c -> { c with crashes = [ crash_ev 0 0 ] }), "crashes: round must be >= 1");
        ( Es,
          (fun c -> { c with crashes = [ crash_ev 1 2; crash_ev 1 4 ] }),
          "crashes: duplicate pid" );
        ( Weak_set,
          (fun c -> { c with n = 3; crashes = []; churn = [ churn_ev (-1) 2 None ] }),
          "churn: pid out of range" );
        ( Es,
          (fun c -> { c with crashes = []; churn = [ churn_ev 0 0 None ] }),
          "churn: leave round must be >= 1" );
        ( Weak_set,
          (fun c -> { c with crashes = []; churn = [ churn_ev 0 3 (Some 3) ] }),
          "churn: rejoin round must be after leave round" );
        ( Es,
          (fun c -> { c with crashes = []; churn = [ churn_ev 1 2 None; churn_ev 1 5 None ] }),
          "churn: duplicate pid" );
        ( Register,
          (fun c -> { c with n = 3; crashes = [ crash_ev 1 2 ]; churn = [ churn_ev 1 3 None ] }),
          "churn: register cases take no churn schedule" );
      ]

let () =
  Alcotest.run "chaos"
    [
      ( "faults",
        [
          Alcotest.test_case "burst crashes" `Quick test_burst_crashes;
          Alcotest.test_case "cascade crashes" `Quick test_cascade_crashes;
          Alcotest.test_case "wrap keeps admissibility" `Quick
            test_wrap_admissible_all_algos;
          Alcotest.test_case "noop wrap is identity" `Quick test_wrap_noop_identity;
          Alcotest.test_case "faults injected" `Quick test_wrap_injects_faults;
          Alcotest.test_case "drop-obligated caught" `Quick test_drop_obligated_detected;
          Alcotest.test_case "unstable-source caught" `Quick
            test_unstable_source_detected;
          Alcotest.test_case "map_plan over scripted keeps env" `Quick
            test_map_plan_scripted_env;
          Alcotest.test_case "map_plan sabotage caught" `Quick
            test_map_plan_scripted_inadmissible;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "scenario json roundtrip" `Quick
            test_scenario_json_roundtrip;
          Alcotest.test_case "admissible campaign clean" `Quick
            test_campaign_admissible_clean;
          Alcotest.test_case "inadmissible repro + replay" `Quick
            test_campaign_inadmissible_repro_replay;
          Alcotest.test_case "replay rejects garbage" `Quick test_replay_rejects_garbage;
        ] );
    ]
