(* Tests for the model checker: verdicts on known-good configurations,
   symmetry reduction, determinism across worker counts, and the
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

(* --- bounded verdicts and their witnesses ------------------------------------- *)

let test_es_shallow_bounded_witness_replays () =
  (* Depth 2 is below ES's decision depth: the verdict is Bounded and the
     non-deciding witness must replay through the real runner to the same
     conclusion (a termination violation at the witness horizon). *)
  let r = Mc.run (config ~n:2 ~rounds:2 ()) in
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
      Witness.write ~path w;
      match Ch.Fuzz.replay ~path with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok replayed ->
        check_bool "replay matches recorded verdict" true replayed.Ch.Fuzz.matches;
        check_bool "env violation reproduced" true
          (List.exists
             (function G.Checker.No_source _ -> true | _ -> false)
             replayed.Ch.Fuzz.actual))

(* --- determinism ---------------------------------------------------------------- *)

let test_jobs_deterministic () =
  (* Identical reports (verdict, counts, witness) at 1 and 4 workers. *)
  let run jobs = Mc.run (config ~n:3 ~crashes:1 ~rounds:5 ~jobs:(Some jobs) ()) in
  let j1 = Mc.report_json (run 1) and j4 = Mc.report_json (run 4) in
  check_bool "byte-identical reports" true
    (String.equal (Anon_obs.Json.to_string j1) (Anon_obs.Json.to_string j4))

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
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "shallow ES bounded witness replays" `Quick
            test_es_shallow_bounded_witness_replays;
          Alcotest.test_case "weak-set blocked-add witness" `Quick
            test_ws_bounded_witness_blocked_add;
          Alcotest.test_case "armed counterexample replays" `Quick
            test_armed_counterexample_replays;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_deterministic;
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
        ] );
    ]
