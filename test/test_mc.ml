(* Tests for the model checker: verdicts on known-good configurations,
   symmetry reduction, successor keys predicted without stepping, and the
   counterexample-to-chaos-replay loop. *)

module G = Anon_giraf
module Mc = Anon_mc.Mc
module Explore = Anon_mc.Explore
module Witness = Anon_mc.Witness
module Ch = Anon_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let config ?(algo = Mc.Es) ?(n = 2) ?(env = G.Env.Es { gst = 2 }) ?(rounds = 6)
    ?(crashes = 0) ?(churn = 0) ?(armed = false) ?(jobs = None)
    ?(search = Mc.Bfs) () =
  {
    Mc.algo;
    n;
    env;
    rounds;
    crashes;
    churn;
    max_delay = 1;
    search;
    armed;
    jobs;
    seed = 42;
    ops_per_client = 1;
  }

(* --- verdicts on known-good configurations ----------------------------------- *)

let test_es_verified () =
  (* ES at gst=2 closes by depth 6: every branch decides, no violation. *)
  let r = Mc.run (config ~n:2 ()) in
  check_bool "verified" true (r.Mc.verdict = Mc.Verified);
  check_bool "no violation" true (r.Mc.violation = None);
  check_bool "no non-deciding branch" true (r.Mc.non_deciding = None);
  check_bool "terminal branches exist" true (r.Mc.stats.Explore.terminal_branches > 0);
  check_int "no branch cut by the bound" 0 r.Mc.stats.Explore.bound_branches

let test_es_n3_verified_with_reduction () =
  let r = Mc.run (config ~n:3 ()) in
  check_bool "verified" true (r.Mc.verdict = Mc.Verified);
  check_bool "symmetry actually reduces" true (Mc.reduction_factor r > 1.0);
  check_bool "dedup hits counted" true (r.Mc.stats.Explore.dedup_hits > 0);
  (* Pinned from the PR 4 string-key canonicalizer: the digest-based keys
     must merge exactly the same orbits, no more (soundness), no fewer
     (the reduction claim). *)
  check_int "raw states" 62 r.Mc.stats.Explore.raw_states;
  check_int "canonical states" 26 r.Mc.stats.Explore.canonical_states

(* The PR 4 baseline reduction factor for the weak set at n=3 is 31.3x
   (33116 raw / 1058 canonical); the incremental digest keys must
   reproduce it exactly. *)
let test_ws_n3_reduction_pinned () =
  let r = Mc.run (config ~algo:Mc.Ms_weakset ~env:G.Env.Ms ~n:3 ~rounds:4 ()) in
  check_bool "verified or bounded" true (r.Mc.verdict <> Mc.Violation);
  check_int "raw states" 33116 r.Mc.stats.Explore.raw_states;
  check_int "canonical states" 1058 r.Mc.stats.Explore.canonical_states;
  check_bool "factor stays 31x" true
    (let f = Mc.reduction_factor r in
     f > 31.0 && f < 32.0)

let test_es_crash_budget_verified () =
  (* Crash schedules are enumerated outside the exploration: budget 1 at
     n=2, depth 6 is 1 (no crash) + 2 pids x 6 rounds = 13 schedules. *)
  let r = Mc.run (config ~n:2 ~crashes:1 ()) in
  check_int "schedules" 13 r.Mc.schedules;
  check_bool "verified" true (r.Mc.verdict = Mc.Verified)

let test_ess_verified () =
  let r =
    Mc.run (config ~algo:Mc.Ess ~env:(G.Env.Ess { gst = 2 }) ~n:2 ~rounds:8 ())
  in
  check_bool "verified" true (r.Mc.verdict = Mc.Verified)

let test_ws_verified () =
  let r = Mc.run (config ~algo:Mc.Ms_weakset ~env:G.Env.Ms ~n:2 ~rounds:4 ()) in
  check_bool "verified" true (r.Mc.verdict = Mc.Verified);
  check_bool "weak-set reduction" true (Mc.reduction_factor r > 1.0)

(* --- the incremental canonical digest ----------------------------------------- *)

(* Property: after an arbitrary sequence of per-slot edits — refreshed
   through the piecewise stream path, with branches taken via [copy]
   along the way — the maintained digest equals the from-scratch
   [full_key] over the current views. *)
let test_digest_incremental_matches_full () =
  let module Canon = Anon_mc.Canon in
  let module Rng = Anon_kernel.Rng in
  let rng = Rng.make 99 in
  let n = 5 in
  let views = Array.init n (fun p -> Printf.sprintf "view-%d" p) in
  let versions = Array.make n 0 in
  let refresh_all d =
    for p = 0 to n - 1 do
      Canon.Digest.refresh_stream d ~slot:p ~version:versions.(p) (fun st ->
          Canon.Digest.feed_string st views.(p))
    done
  in
  let d = ref (Canon.Digest.create ~n) in
  for step = 1 to 300 do
    let p = Rng.int rng n in
    views.(p) <-
      Printf.sprintf "v%d|%d|%s" p step
        (String.make (Rng.int rng 8) (Char.chr (97 + Rng.int rng 26)));
    versions.(p) <- versions.(p) + 1;
    if Rng.bool rng then d := Canon.Digest.copy !d;
    refresh_all !d;
    let round = step mod 7 and global = if step mod 3 = 0 then "g" else "" in
    Alcotest.(check string)
      (Printf.sprintf "digest = full rehash at step %d" step)
      (Canon.Digest.full_key ~round ~global ~views:(Array.to_list views))
      (Canon.Digest.key !d ~round ~global)
  done

(* The benchmark's mc-es workload: the counts the predicted search must
   keep. *)
let test_es_gst6_pinned () =
  let r =
    Mc.run
      (config ~n:3 ~env:(G.Env.Es { gst = 6 }) ~rounds:10 ~jobs:(Some 1) ())
  in
  check_bool "verified" true (r.Mc.verdict = Mc.Verified);
  check_int "raw states" 20056 r.Mc.stats.Explore.raw_states;
  check_int "canonical states" 753 r.Mc.stats.Explore.canonical_states

(* --- predicted successors ------------------------------------------------------ *)

(* The reference the predicted search must agree with: every predicted
   branch built with [apply], after checking that the prediction named
   the built successor's key. *)
module Eager (S : Explore.SYSTEM) : Explore.SYSTEM with type sys = S.sys = struct
  include S

  let expand s =
    List.map
      (function
        | Explore.Stepped _ as b -> b
        | Explore.Predicted { plan; key } ->
          let sys = S.apply s plan in
          if not (String.equal (S.key sys) key) then
            failwith "predicted key <> key (apply s plan)";
          Explore.Stepped { plan; sys; violations = [] })
      (S.expand s)
end

let crash_events ~n evs =
  G.Crash.of_events ~n
    (List.map
       (fun (pid, round) -> { G.Crash.pid; round; broadcast = G.Crash.Broadcast_subset })
       evs)

let consensus_sys ?(model = (module Anon_consensus.Es_consensus : Anon_mc.Consensus_sys.MODEL))
    ?(crash = []) ?(churn = []) ?(max_delay = 1) ?(armed = false) env =
  Anon_mc.Consensus_sys.make model
    {
      Anon_mc.Consensus_sys.inputs = [ 3; 1; 2 ];
      crash = crash_events ~n:3 crash;
      churn = G.Churn.of_events ~n:3 churn;
      env;
      max_delay;
      armed;
    }

let ws_sys ~n ?(max_delay = 1) env =
  Anon_mc.Ws_sys.make
    {
      Anon_mc.Ws_sys.n;
      crash = G.Crash.none ~n;
      env;
      max_delay;
      armed = false;
      ops_per_client = 1;
    }

type search = Bfs | Dfs

(* Stats, violation witness and non-deciding witness of the predicted
   search equal the eager reference's. *)
let prediction_case (label, sys, depth, searches) =
  Alcotest.test_case label `Quick (fun () ->
      let (module S : Explore.SYSTEM) = sys in
      List.iter
        (fun search ->
          let run (module X : Explore.SYSTEM) =
            match search with
            | Bfs -> Explore.bfs ~depth (module X)
            | Dfs -> Explore.dfs ~depth (module X)
          in
          let name = match search with Bfs -> "bfs" | Dfs -> "dfs" in
          let predicted = run (module S) and eager = run (module Eager (S)) in
          check_bool (name ^ ": same stats") true (predicted.Explore.stats = eager.Explore.stats);
          check_bool (name ^ ": same violation") true
            (predicted.Explore.violation = eager.Explore.violation);
          check_bool (name ^ ": same non-deciding branch") true
            (predicted.Explore.non_deciding = eager.Explore.non_deciding))
        searches)

let prediction_cases =
  let es g = G.Env.Es { gst = g } in
  [
    ("ES n=3 depth 10 gst 6", consensus_sys (es 6), 10, [ Bfs; Dfs ]);
    ("ES 1 crash", consensus_sys ~crash:[ (1, 2) ] (es 2), 6, [ Bfs ]);
    ("ES 2 crashes", consensus_sys ~crash:[ (0, 1); (2, 3) ] (es 2), 6, [ Bfs; Dfs ]);
    ( "ESS n=3 depth 4",
      consensus_sys ~model:(module Anon_consensus.Ess_consensus) (G.Env.Ess { gst = 2 }),
      4,
      [ Bfs ] );
    ("weak set n=3", ws_sys ~n:3 G.Env.Ms, 4, [ Bfs; Dfs ]);
    (* Equal Away views rejoin from different inputs. *)
    ( "churn 2, same rounds",
      consensus_sys
        ~churn:
          [
            { G.Churn.pid = 0; leave = 2; rejoin = Some 3 };
            { G.Churn.pid = 2; leave = 2; rejoin = Some 3 };
          ]
        (es 3),
      5,
      [ Bfs; Dfs ] );
    (* ... and leave from converged, equal Live views. *)
    ( "churn 2, converged before leaving",
      consensus_sys
        ~churn:
          [
            { G.Churn.pid = 0; leave = 6; rejoin = Some 7 };
            { G.Churn.pid = 2; leave = 6; rejoin = Some 7 };
          ]
        (es 10),
      7,
      [ Bfs; Dfs ] );
    (* A crasher that decides in its crash round shows [H] and becomes
       [X]; another [H] stays [H]. *)
    ("decision in the crash round", consensus_sys ~crash:[ (1, 5) ] G.Env.Ms, 5, [ Bfs ]);
    ( "dynamic:2",
      consensus_sys (G.Env.Dynamic { stability = 2; rooted = true }),
      6,
      [ Bfs ] );
    ("armed", consensus_sys ~armed:true (es 2), 5, [ Bfs; Dfs ]);
    ("max_delay 2", consensus_sys ~max_delay:2 (es 3), 6, [ Bfs ]);
    ("weak set max_delay 2", ws_sys ~n:2 ~max_delay:2 G.Env.Ms, 4, [ Bfs ]);
  ]

(* --- bounded verdicts and their witnesses ------------------------------------- *)

let test_es_shallow_bounded_witness_replays () =
  (* Depth 2 is below ES's decision depth: the verdict is Bounded and the
     non-deciding witness must replay through the real runner to the same
     conclusion (a termination violation at the witness horizon). The
     recorder's registry holds the search's counts only; the replay
     shows in its sink. *)
  let registry = Anon_obs.Metrics.create () in
  let events = ref [] in
  let sink = Anon_obs.Sink.handler (fun ev -> events := ev :: !events) in
  let r =
    Mc.run
      ~recorder:(Anon_obs.Recorder.create ~metrics:registry ~sink ())
      (config ~n:2 ~rounds:2 ())
  in
  let snap = Anon_obs.Metrics.snapshot registry in
  List.iter
    (fun name ->
      if not (String.starts_with ~prefix:"mc." name) then
        Alcotest.failf "mc snapshot row %s is not the search's" name)
    (List.map fst snap.counters @ List.map fst snap.gauges @ List.map fst snap.histograms);
  check_bool "replay events reach the sink" true
    (List.exists
       (function Anon_obs.Event.Run_start _ -> true | _ -> false)
       !events);
  check_bool "bounded" true (r.Mc.verdict = Mc.Bounded);
  check_bool "no safety violation" true (r.Mc.violation = None);
  match r.Mc.witness with
  | None -> Alcotest.fail "expected a non-deciding witness"
  | Some w ->
    check_bool "replay reproduces non-decision" true (Witness.confirmed w);
    check_bool "replay reports a termination violation" true
      (List.exists
         (function G.Checker.Termination_violation _ -> true | _ -> false)
         w.Witness.replay_violations)

let test_ws_bounded_witness_blocked_add () =
  (* Depth 2 cuts the weak-set run before pending adds complete: bounded,
     with a witness whose replay shows no safety violation (a blocked add
     is a liveness artifact of the bound, not a bug). *)
  let r = Mc.run (config ~algo:Mc.Ms_weakset ~env:G.Env.Ms ~n:2 ~rounds:2 ()) in
  check_bool "bounded" true (r.Mc.verdict = Mc.Bounded);
  check_bool "blocked clients recorded" true
    (match r.Mc.non_deciding with
    | Some (_, _, b) -> b.Explore.b_blocked <> []
    | None -> false);
  match r.Mc.witness with
  | None -> Alcotest.fail "expected a bounded witness"
  | Some w -> check_bool "no safety violation on replay" true (not (Witness.confirmed w))

(* --- armed mode: the counterexample loop --------------------------------------- *)

let test_armed_counterexample_replays () =
  let r = Mc.run (config ~n:2 ~rounds:4 ~armed:true ()) in
  check_bool "violation found" true (r.Mc.verdict = Mc.Violation);
  let w =
    match r.Mc.witness with
    | Some w -> w
    | None -> Alcotest.fail "expected a witness"
  in
  check_bool "replay confirms" true (Witness.confirmed w);
  (* The witness goes through the PR-2 chaos repro format verbatim. *)
  let path = Filename.temp_file "anon_mc_repro" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Anon_obs.Json.to_string (Witness.to_json w)));
      match Ch.Fuzz.replay ~path with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok replayed ->
        check_bool "replay matches recorded verdict" true replayed.Ch.Fuzz.matches;
        check_bool "env violation reproduced" true
          (List.exists
             (function G.Checker.No_source _ -> true | _ -> false)
             replayed.Ch.Fuzz.actual))

(* An armed marker is the checker's own finding: the witness's
   violations are the environment findings of its replay, under every
   environment that owes something at round 1. *)
let test_armed_markers_are_replay_findings () =
  let env_finding = function
    | G.Checker.No_source _ | G.Checker.Source_not_timely _ | G.Checker.Unstable_source _
    | G.Checker.No_root _ | G.Checker.Stability_violation _ ->
      true
    | G.Checker.Agreement_violation _ | G.Checker.Validity_violation _
    | G.Checker.Termination_violation _ | G.Checker.Weak_set_lost_add _
    | G.Checker.Weak_set_phantom_value _ | G.Checker.Register_stale_read _ ->
      false
  in
  let render = List.map (Format.asprintf "%a" G.Checker.pp_violation) in
  List.iter
    (fun env ->
      let label = G.Env.to_string env in
      let r = Mc.run (config ~n:3 ~rounds:3 ~env ~armed:true ()) in
      match (r.Mc.violation, r.Mc.witness) with
      | Some (_, _, v), Some w ->
        check_bool (label ^ ": a marker") true (v.Explore.w_violations <> []);
        Alcotest.(check (list string))
          label
          (render (List.filter env_finding w.Witness.replay_violations))
          (render v.Explore.w_violations)
      | _ -> Alcotest.failf "%s: expected an armed violation and its witness" label)
    G.Env.
      [ Sync; Es { gst = 1 }; Ess { gst = 1 }; Ms; Dynamic { stability = 2; rooted = true } ]

(* --- determinism ---------------------------------------------------------------- *)

let test_reproducible () =
  (* The same configuration twice: byte-identical reports, witness
     included. *)
  let report () =
    Format.asprintf "%a" Mc.pp_report (Mc.run (config ~n:3 ~crashes:1 ~rounds:5 ()))
  in
  Alcotest.(check string) "byte-identical reports" (report ()) (report ())

let test_dfs_bfs_same_verdict () =
  let bfs = Mc.run (config ~n:2 ~search:Mc.Bfs ()) in
  let dfs = Mc.run (config ~n:2 ~search:Mc.Dfs ()) in
  check_bool "same verdict" true (bfs.Mc.verdict = dfs.Mc.verdict);
  check_int "same raw states" bfs.Mc.stats.Explore.raw_states
    dfs.Mc.stats.Explore.raw_states

(* --- the unguarded ablation ----------------------------------------------------- *)

let test_es_unguarded_safe_when_admissible () =
  (* The A2 agreement split needs an inadmissible (literal-model)
     schedule; over admissible ES schedules the unguarded variant
     verifies clean even with a crash budget. *)
  let r = Mc.run (config ~algo:Mc.Es_unguarded ~n:3 ~crashes:1 ()) in
  check_bool "verified" true (r.Mc.verdict = Mc.Verified)

(* --- invalid input ----------------------------------------------------------------- *)

(* Bad input is a structured [Invalid_config] from [Mc.run], never an
   [Invalid_argument] from inside the search, and a delay bound of 0 is
   not silently explored as synchrony. *)
let test_invalid_configs_rejected () =
  let ok = config () in
  let ws = { ok with algo = Mc.Ms_weakset; env = G.Env.Ms } in
  List.iter
    (fun (label, bad) ->
      match Mc.run bad with
      | exception G.Config_error.Invalid_config { where = "Mc.run"; _ } -> ()
      | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: expected Invalid_config" label)
    [
      ("n = 0", { ok with n = 0 });
      ("rounds = 0", { ok with rounds = 0 });
      ("crashes > n", { ok with crashes = 5 });
      ("negative churn", { ok with churn = -1 });
      ("weak-set churn", { ws with churn = 1 });
      ("negative max_delay", { ok with max_delay = -1 });
      ("max_delay = 0", { ok with max_delay = 0 });
      ("negative ops_per_client", { ws with ops_per_client = -1 });
      ("gst = 0", { ok with env = G.Env.Es { gst = 0 } });
      ("negative ess gst", { ok with algo = Mc.Ess; env = G.Env.Ess { gst = -1 } });
    ]

(* [jobs] stays on [Explore.bfs] and [Mc.config] only because the
   benchmark passes 1: 1 searches, any other value is refused. *)
let test_jobs_must_be_one () =
  let (module S : Explore.SYSTEM) = consensus_sys (G.Env.Es { gst = 2 }) in
  let bfs jobs () =
    let r = Explore.bfs ~jobs ~depth:6 (module S) in
    r.Explore.violation = None && r.Explore.stats.Explore.bound_branches = 0
  in
  let mc jobs () = (Mc.run (config ~n:3 ~jobs ())).Mc.verdict = Mc.Verified in
  List.iter
    (fun (label, search, accepted) ->
      match search () with
      | exception G.Config_error.Invalid_config _ when not accepted -> ()
      | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
      | verified ->
        if not accepted then Alcotest.failf "%s: expected Invalid_config" label;
        check_bool (label ^ ": verified") true verified)
    [
      ("Explore.bfs ~jobs:1", bfs 1, true);
      ("Explore.bfs ~jobs:2", bfs 2, false);
      ("Mc.run jobs = None", mc None, true);
      ("Mc.run jobs = Some 1", mc (Some 1), true);
      ("Mc.run jobs = Some 2", mc (Some 2), false);
    ]

let () =
  Alcotest.run "mc"
    [
      ( "verdicts",
        [
          Alcotest.test_case "ES n=2 verified" `Quick test_es_verified;
          Alcotest.test_case "ES n=3 verified, reduced" `Quick
            test_es_n3_verified_with_reduction;
          Alcotest.test_case "ES crash budget verified" `Quick
            test_es_crash_budget_verified;
          Alcotest.test_case "ESS n=2 verified" `Quick test_ess_verified;
          Alcotest.test_case "weak-set n=2 verified" `Quick test_ws_verified;
          Alcotest.test_case "weak-set n=3 reduction pinned at 31x" `Quick
            test_ws_n3_reduction_pinned;
          Alcotest.test_case "digest: incremental = full rehash" `Quick
            test_digest_incremental_matches_full;
          Alcotest.test_case "ES n=3 gst 6 depth 10 pinned" `Quick test_es_gst6_pinned;
        ] );
      ("prediction", List.map prediction_case prediction_cases);
      ( "witnesses",
        [
          Alcotest.test_case "shallow ES bounded witness replays" `Quick
            test_es_shallow_bounded_witness_replays;
          Alcotest.test_case "weak-set blocked-add witness" `Quick
            test_ws_bounded_witness_blocked_add;
          Alcotest.test_case "armed counterexample replays" `Quick
            test_armed_counterexample_replays;
          Alcotest.test_case "armed markers = replay's env findings" `Quick
            test_armed_markers_are_replay_findings;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same config twice, same report" `Quick test_reproducible;
          Alcotest.test_case "dfs = bfs verdict" `Quick test_dfs_bfs_same_verdict;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "unguarded safe on admissible schedules" `Quick
            test_es_unguarded_safe_when_admissible;
        ] );
      ( "validation",
        [
          Alcotest.test_case "invalid configs rejected" `Quick
            test_invalid_configs_rejected;
          Alcotest.test_case "jobs other than one refused" `Quick
            test_jobs_must_be_one;
        ] );
    ]
