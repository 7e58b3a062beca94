(* Tests for the multi-shot consensus service (lib/rsm): workload
   validation discipline, the W=1/B=1 and W=8/B=4 (under crash and churn)
   differentials against one-shot Runner executions (the multiplexer adds
   no semantics), window independence, sharded jobs-equivalence of the
   load report, log contiguity under crash/churn stalls, and a
   fuzz-campaign smoke over dynamic-graph + churn load runs. *)

open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module Rsm = Anon_rsm.Rsm
module Load = Anon_rsm.Load
module Workload = Anon_rsm.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let rejects ~what f =
  match f () with
  | exception G.Config_error.Invalid_config _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_config" what

let workload ?(skew = 0.) ?(value_range = 16) ?(shards = 1) ?(seed = 42)
    ~proposals ~rate () =
  Workload.make ~skew ~value_range ~shards ~proposals ~rate ~seed ()

let no_faults = (G.Crash.none ~n:0, G.Churn.none ~n:0)

let config ?(n = 3) ?(window = 1) ?(batch = 1) ?(horizon = 400) ?(seed = 42)
    ?faults adversary =
  let crash, churn = Option.value ~default:no_faults faults in
  {
    Rsm.n;
    window;
    batch;
    horizon;
    seed;
    crash = (if G.Crash.n crash = 0 then G.Crash.none ~n else crash);
    churn = (if G.Churn.n churn = 0 then G.Churn.none ~n else churn);
    adversary;
  }

let es_factory ?(gst = 4) () _instance = G.Adversary.es ~gst ()

(* --- validation -------------------------------------------------------------- *)

let test_workload_validation () =
  rejects ~what:"nan rate" (fun () ->
      workload ~proposals:10 ~rate:Float.nan ());
  rejects ~what:"negative rate" (fun () -> workload ~proposals:10 ~rate:(-1.) ());
  rejects ~what:"zero rate" (fun () -> workload ~proposals:10 ~rate:0. ());
  rejects ~what:"infinite rate" (fun () ->
      workload ~proposals:10 ~rate:Float.infinity ());
  rejects ~what:"nan skew" (fun () ->
      workload ~skew:Float.nan ~proposals:10 ~rate:1. ());
  rejects ~what:"skew > 1" (fun () ->
      workload ~skew:1.5 ~proposals:10 ~rate:1. ());
  rejects ~what:"skew < 0" (fun () ->
      workload ~skew:(-0.1) ~proposals:10 ~rate:1. ());
  rejects ~what:"no proposals" (fun () -> workload ~proposals:0 ~rate:1. ());
  rejects ~what:"zero shards" (fun () ->
      workload ~shards:0 ~proposals:10 ~rate:1. ());
  rejects ~what:"empty value range" (fun () ->
      workload ~value_range:0 ~proposals:10 ~rate:1. ());
  (* Proposal 2 would arrive near round 2e300, past max_int. *)
  rejects ~what:"last arrival past max_int" (fun () ->
      workload ~proposals:3 ~rate:1e-300 ());
  (* A lone proposal arrives at round 1 at any rate. *)
  check_int "lone proposal at a tiny rate" 1
    (Workload.arrival (workload ~proposals:1 ~rate:1e-300 ()) 0);
  (* Boundary skews are legal. *)
  ignore (workload ~skew:0. ~proposals:1 ~rate:1. ());
  ignore (workload ~skew:1. ~proposals:1 ~rate:1. ())

let test_rsm_validation () =
  let ok = config (es_factory ()) in
  Rsm.validate ok;
  rejects ~what:"zero window" (fun () -> Rsm.validate { ok with window = 0 });
  rejects ~what:"zero batch" (fun () -> Rsm.validate { ok with batch = 0 });
  rejects ~what:"batch > window" (fun () ->
      Rsm.validate { ok with window = 2; batch = 3 });
  rejects ~what:"zero horizon" (fun () -> Rsm.validate { ok with horizon = 0 });
  rejects ~what:"n < 1" (fun () -> Rsm.validate { ok with n = 0 });
  rejects ~what:"crash size mismatch" (fun () ->
      Rsm.validate { ok with crash = G.Crash.none ~n:5 });
  rejects ~what:"churn size mismatch" (fun () ->
      Rsm.validate { ok with churn = G.Churn.none ~n:5 });
  rejects ~what:"crash+churn overlap" (fun () ->
      Rsm.validate
        {
          ok with
          crash =
            G.Crash.of_events ~n:3
              [ { pid = 1; round = 2; broadcast = G.Crash.Silent } ];
          churn = G.Churn.of_events ~n:3 [ { pid = 1; leave = 3; rejoin = None } ];
        })

(* --- workload stream --------------------------------------------------------- *)

let test_workload_stream () =
  let w = workload ~shards:3 ~proposals:20 ~rate:2.5 () in
  (* Shards partition the id space; arrivals and values are pure in id. *)
  let all =
    List.concat_map (fun s -> Workload.shard_proposals w s) [ 0; 1; 2 ]
    |> List.sort (fun a b -> compare a.Workload.id b.Workload.id)
  in
  check_int "partition covers all ids" 20 (List.length all);
  List.iteri
    (fun j (p : Workload.proposal) ->
      check_int "ids dense" j p.id;
      check_int "arrival pure" (Workload.arrival w j) p.arrival;
      check_int "value pure" (Workload.value w j) p.value;
      check_int "round-robin shard" (j mod 3) (Workload.shard_of w j))
    all;
  check_int "open-loop arrival" 1 (Workload.arrival w 0);
  check_int "open-loop arrival j=5" 3 (Workload.arrival w 5);
  let hot = workload ~skew:1. ~proposals:50 ~rate:1. () in
  List.iter
    (fun (p : Workload.proposal) ->
      check_int "skew 1 pins the hot value" hot.Workload.hot_value p.value)
    (Workload.shard_proposals hot 0)

(* --- differential: W=1, B=1 multiplexing is exactly the one-shot runner ------ *)

let differential (module A : G.Intf.ALGORITHM) ~make_adversary ~gst () =
  let module M = Rsm.Make (A) in
  let module R = G.Runner.Make (A) in
  let k = 6 and n = 3 and seed = 77 in
  let w = workload ~seed ~value_range:9 ~proposals:k ~rate:1000. () in
  let cfg = config ~n ~seed (fun _ -> make_adversary ~gst) in
  let out = M.run cfg ~proposals:(Workload.shard_proposals w 0) in
  check_int "one instance per proposal" k (List.length out.Rsm.instances);
  check_bool "all decided" true (out.Rsm.commit = k && out.Rsm.stalled = 0);
  List.iter
    (fun (ir : Rsm.instance_result) ->
      let v = Workload.value w ir.Rsm.first_proposal in
      let one_shot =
        R.run
          (G.Runner.default_config
             ~seed:(Rsm.instance_seed ~seed ~instance:ir.Rsm.instance)
             ~inputs:(List.init n (fun _ -> v))
             ~crash:(G.Crash.none ~n) (make_adversary ~gst))
      in
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "instance %d decisions = one-shot runner" ir.Rsm.instance)
        one_shot.G.Runner.decisions ir.Rsm.decisions;
      check_bool "committed value is the one-shot decision" true
        (match (ir.Rsm.value, one_shot.G.Runner.decisions) with
        | Some v', (_, _, v0) :: _ -> v' = v0
        | _ -> false))
    out.Rsm.instances

let test_differential_es () =
  differential
    (module C.Es_consensus)
    ~make_adversary:(fun ~gst -> G.Adversary.es ~gst ())
    ~gst:4 ()

let test_differential_ess () =
  differential
    (module C.Ess_consensus)
    ~make_adversary:(fun ~gst -> G.Adversary.ess ~gst ())
    ~gst:4 ()

(* The test's own reading of rsm.mli's local frame: an instance opened at
   global round [g0] sees global round [g] as [g - g0 + 1]. A crash that
   already happened is a silent crash at local round 1; an absence that
   already ended is no event, and one under way leaves at local round 1. *)
let crash_in_frame ~g0 ~n crash =
  G.Crash.of_events ~n
    (List.map
       (fun (ev : G.Crash.event) ->
         let round = ev.round - g0 + 1 in
         if round >= 1 then { ev with round } else { ev with round = 1; broadcast = G.Crash.Silent })
       (G.Crash.events crash))

let churn_in_frame ~g0 ~n churn =
  G.Churn.of_events ~n
    (List.filter_map
       (fun (ev : G.Churn.event) ->
         let rejoin = Option.map (fun r -> r - g0 + 1) ev.rejoin in
         match rejoin with
         | Some r when r <= 1 -> None
         | Some _ | None -> Some { ev with leave = max 1 (ev.leave - g0 + 1); rejoin })
       (G.Churn.events churn))

(* W=8, B=4 at n=4: every instance of the multiplexer, pipelined with up
   to seven others and batching up to four proposals, is the one-shot
   [Runner.run] at its seed, inputs [vs.(p mod b)], a fresh adversary and
   the schedules in its local frame. *)
let window_batch_differential ~crash ~churn () =
  let module M = Rsm.Make (C.Es_consensus) in
  let module R = G.Runner.Make (C.Es_consensus) in
  let n = 4 and seed = 31 and gst = 4 in
  let w = workload ~seed ~value_range:9 ~proposals:120 ~rate:8. () in
  let cfg =
    { (config ~n ~window:8 ~batch:4 ~horizon:2000 ~seed (es_factory ~gst ())) with crash; churn }
  in
  let out = M.run cfg ~proposals:(Workload.shard_proposals w 0) in
  check_bool "several instances" true (List.length out.Rsm.instances > 8);
  check_bool "batches fill" true
    (List.exists (fun (ir : Rsm.instance_result) -> List.length ir.batch_values = 4)
       out.Rsm.instances);
  List.iter
    (fun (ir : Rsm.instance_result) ->
      let g0 = ir.opened in
      let vs = Array.of_list ir.batch_values in
      let one_shot =
        R.run
          (G.Runner.default_config ~horizon:2000
             ~seed:(Rsm.instance_seed ~seed ~instance:ir.instance)
             ~churn:(churn_in_frame ~g0 ~n churn)
             ~inputs:(List.init n (fun p -> vs.(p mod Array.length vs)))
             ~crash:(crash_in_frame ~g0 ~n crash) (G.Adversary.es ~gst ()))
      in
      let what = Printf.sprintf "instance %d (opened %d)" ir.instance g0 in
      Alcotest.(check (list (triple int int int)))
        (what ^ ": decisions = one-shot runner") one_shot.G.Runner.decisions ir.decisions;
      Alcotest.(check (option int))
        (what ^ ": committed value = one-shot decision")
        (match List.rev one_shot.G.Runner.decisions with
        | (_, _, v) :: _ -> Some v
        | [] -> None)
        ir.value;
      check_int (what ^ ": local rounds") one_shot.G.Runner.rounds_executed ir.local_rounds)
    out.Rsm.instances;
  out

let test_window_batch_faults () =
  let n = 4 in
  let crash =
    G.Crash.of_events ~n [ { pid = 3; round = 6; broadcast = G.Crash.Broadcast_subset } ]
  in
  let churn = G.Churn.of_events ~n [ { pid = 2; leave = 4; rejoin = Some 12 } ] in
  let out = window_batch_differential ~crash ~churn () in
  let opened_in lo hi =
    List.exists (fun (ir : Rsm.instance_result) -> ir.opened >= lo && ir.opened <= hi)
      out.Rsm.instances
  in
  check_bool "instances open before, during and after the absence" true
    (opened_in 1 3 && opened_in 5 11 && opened_in 12 100);
  check_bool "agreement" true out.Rsm.agreement_ok;
  check_bool "validity" true out.Rsm.validity_ok

let test_window_batch_no_faults () =
  let n = 4 in
  let out =
    window_batch_differential ~crash:(G.Crash.none ~n) ~churn:(G.Churn.none ~n) ()
  in
  check_int "every instance commits" (List.length out.Rsm.instances) out.Rsm.commit

(* At batch 1 every process proposes the proposal's value, so validity pins
   the log to the workload stream itself — and the window size cannot
   change any committed value (instances are seed-isolated). *)
let test_window_independence_b1 () =
  let module M = Rsm.Make (C.Es_consensus) in
  let w = workload ~seed:5 ~proposals:12 ~rate:3. () in
  let proposals = Workload.shard_proposals w 0 in
  let log cfg =
    let out = M.run cfg ~proposals in
    check_bool "agreement" true out.Rsm.agreement_ok;
    check_bool "validity" true out.Rsm.validity_ok;
    check_int "everything commits" 12 out.Rsm.committed_proposals;
    List.map
      (fun (ir : Rsm.instance_result) -> Option.get ir.Rsm.value)
      out.Rsm.instances
  in
  let expected = List.map (fun (p : Workload.proposal) -> p.value) proposals in
  let log1 = log (config ~seed:5 ~window:1 (es_factory ())) in
  let log4 = log (config ~seed:5 ~window:4 (es_factory ())) in
  Alcotest.(check (list int)) "B=1 log is the proposal stream" expected log1;
  Alcotest.(check (list int)) "window does not change the log" log1 log4

(* --- sharded load: byte-identical reports at any jobs ------------------------ *)

let load_report ~jobs =
  let module L = Load.Make (C.Es_consensus) in
  let w = workload ~seed:11 ~skew:0.3 ~shards:4 ~proposals:600 ~rate:20. () in
  L.run ~jobs ~env:"es:4" ~n:3 ~window:8 ~batch:4 ~horizon:2000
    ~adversary:(fun ~shard:_ ~instance:_ -> G.Adversary.es ~gst:4 ())
    w

let test_jobs_equivalence () =
  let doc r = Anon_obs.Json.to_string (Load.to_json r) in
  let r1 = load_report ~jobs:1 in
  check_bool "agreement" true r1.Load.agreement_ok;
  check_bool "validity" true r1.Load.validity_ok;
  check_int "all proposals decided" 600 r1.Load.decided;
  let d1 = doc r1 in
  check_string "jobs 2 = jobs 1" d1 (doc (load_report ~jobs:2));
  check_string "jobs 4 = jobs 1" d1 (doc (load_report ~jobs:4));
  check_bool "p99 covers p50" true (r1.Load.p99_rounds >= r1.Load.p50_rounds)

(* --- faults: stalls keep the log contiguous ---------------------------------- *)

let commit_is_contiguous (out : Rsm.outcome) =
  let rec prefix = function
    | { Rsm.value = Some _; arrivals; _ } :: rest ->
      let c, p = prefix rest in
      (c + 1, p + List.length arrivals)
    | _ -> (0, 0)
  in
  let c, p = prefix out.Rsm.instances in
  check_int "commit = contiguous decided prefix" c out.Rsm.commit;
  check_int "committed proposals follow the prefix" p out.Rsm.committed_proposals

let test_crash_all_stalls () =
  let module M = Rsm.Make (C.Es_consensus) in
  let n = 2 in
  let crash =
    G.Crash.of_events ~n
      [
        { pid = 0; round = 2; broadcast = G.Crash.Silent };
        { pid = 1; round = 2; broadcast = G.Crash.Silent };
      ]
  in
  let w = workload ~proposals:4 ~rate:1000. () in
  let cfg =
    config ~n ~window:2 ~faults:(crash, G.Churn.none ~n) (es_factory ())
  in
  let out = M.run cfg ~proposals:(Workload.shard_proposals w 0) in
  check_int "nothing commits" 0 out.Rsm.commit;
  check_bool "every instance stalls" true
    (out.Rsm.stalled = List.length out.Rsm.instances);
  check_bool "terminates before the horizon" true (out.Rsm.rounds < cfg.Rsm.horizon);
  check_bool "agreement vacuous" true out.Rsm.agreement_ok;
  commit_is_contiguous out

let test_crash_subset_decides () =
  let module M = Rsm.Make (C.Es_consensus) in
  let n = 4 in
  let crash =
    G.Crash.of_events ~n
      [ { pid = 3; round = 3; broadcast = G.Crash.Broadcast_subset } ]
  in
  let w = workload ~seed:9 ~proposals:10 ~rate:5. () in
  let cfg =
    config ~n ~window:3 ~batch:2 ~faults:(crash, G.Churn.none ~n) (es_factory ())
  in
  let out = M.run cfg ~proposals:(Workload.shard_proposals w 0) in
  check_bool "agreement under a crasher" true out.Rsm.agreement_ok;
  check_bool "validity under a crasher" true out.Rsm.validity_ok;
  check_int "all proposals decided" 10 out.Rsm.decided_proposals;
  check_int "log complete" (List.length out.Rsm.instances) out.Rsm.commit;
  commit_is_contiguous out

(* A full-population absence window stalls exactly the instances opened
   inside it; the log hole freezes the commit pointer while later
   instances still decide. *)
let test_churn_hole_blocks_commit () =
  let module M = Rsm.Make (C.Es_consensus) in
  let n = 2 in
  let churn =
    G.Churn.of_events ~n
      [
        { pid = 0; leave = 2; rejoin = Some 4 };
        { pid = 1; leave = 2; rejoin = Some 4 };
      ]
  in
  let w = workload ~proposals:4 ~rate:1000. () in
  let cfg = config ~n ~faults:(G.Crash.none ~n, churn) (es_factory ()) in
  let out = M.run cfg ~proposals:(Workload.shard_proposals w 0) in
  check_bool "early instances stall" true (out.Rsm.stalled > 0);
  check_bool "late instances decide" true (out.Rsm.decided_proposals > 0);
  check_int "the hole freezes the commit pointer" 0 out.Rsm.commit;
  check_bool "agreement" true out.Rsm.agreement_ok;
  check_bool "validity" true out.Rsm.validity_ok;
  commit_is_contiguous out

(* Validity is judged against what an instance's processes proposed, not
   against its batch: at n = 1 with batch 2 only the first batch value is
   proposed, so an algorithm that decides [input + 1] commits the second
   batch value, which nobody proposed. *)
module Plus_one = struct
  let name = "plus-one"

  type state = Value.t
  type msg = unit

  let msg_compare = compare
  let msg_size () = 0
  let leader _ = None
  let initialize v = (v, ())
  let compute v ~round:_ ~inbox:_ = (v, (), Some (v + 1))
end

let test_validity_against_proposals () =
  let module M = Rsm.Make (Plus_one) in
  let proposals =
    [
      { Workload.id = 0; arrival = 1; value = 5 };
      { Workload.id = 1; arrival = 1; value = 6 };
    ]
  in
  let out =
    M.run (config ~n:1 ~window:2 ~batch:2 (fun _ -> G.Adversary.sync ())) ~proposals
  in
  check_int "one instance commits" 1 out.Rsm.commit;
  Alcotest.(check (option int)) "it commits 6" (Some 6)
    (List.hd out.Rsm.instances).Rsm.value;
  check_bool "agreement" true out.Rsm.agreement_ok;
  check_bool "6 was never proposed" false out.Rsm.validity_ok

(* --- fuzz smoke: dynamic graphs + churn through the load path ---------------- *)

let test_fuzz_dynamic_churn_smoke () =
  let module L = Load.Make (C.Ess_consensus) in
  let rng = Rng.make 2026 in
  for case = 1 to 8 do
    let n = 3 + Rng.int rng 3 in
    let stability = 1 + Rng.int rng 3 in
    let shards = 1 + Rng.int rng 2 in
    let churners = Rng.int rng (max 1 (n - 1)) in
    let seed = 1000 + (case * 17) in
    let churn ~shard =
      G.Churn.random ~n ~churners ~max_round:12 (Rng.make (seed + shard))
    in
    let w =
      Workload.make ~shards ~value_range:5
        ~skew:(Rng.float rng 1.)
        ~proposals:(40 + Rng.int rng 40)
        ~rate:(1. +. Rng.float rng 20.)
        ~seed ()
    in
    let r =
      L.run ~jobs:1 ~env:"dynamic" ~n ~window:4 ~batch:2 ~horizon:3000 ~churn
        ~adversary:(fun ~shard:_ ~instance:_ ->
          G.Adversary.dynamic ~stability ~rooted:true ())
        w
    in
    check_bool
      (Printf.sprintf "case %d: agreement (n=%d stability=%d churners=%d)" case
         n stability churners)
      true r.Load.agreement_ok;
    check_bool (Printf.sprintf "case %d: validity" case) true r.Load.validity_ok;
    check_bool (Printf.sprintf "case %d: commit <= decided" case) true
      (r.Load.committed <= r.Load.decided);
    check_bool (Printf.sprintf "case %d: progress" case) true (r.Load.decided > 0)
  done

(* --- report plumbing --------------------------------------------------------- *)

let test_report_json_shape () =
  let r = load_report ~jobs:1 in
  let j = Load.to_json r in
  let open Anon_obs.Json in
  check_bool "schema" true (member "schema" j = Some (String "anon-load/1"));
  check_bool "round-trips" true
    (match of_string (to_string j) with Ok j' -> equal j j' | Error _ -> false)

let () =
  Alcotest.run "rsm"
    [
      ( "validation",
        [
          Alcotest.test_case "workload params" `Quick test_workload_validation;
          Alcotest.test_case "rsm config" `Quick test_rsm_validation;
        ] );
      ( "workload",
        [ Alcotest.test_case "deterministic stream" `Quick test_workload_stream ] );
      ( "differential",
        [
          Alcotest.test_case "W=1 B=1 es = one-shot runner" `Quick
            test_differential_es;
          Alcotest.test_case "W=1 B=1 ess = one-shot runner" `Quick
            test_differential_ess;
          Alcotest.test_case "window independence at B=1" `Quick
            test_window_independence_b1;
          Alcotest.test_case "W=8 B=4 under crash and churn = one-shot runner" `Quick
            test_window_batch_faults;
          Alcotest.test_case "W=8 B=4 without faults = one-shot runner" `Quick
            test_window_batch_no_faults;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "byte-identical at jobs 1/2/4" `Quick
            test_jobs_equivalence;
          Alcotest.test_case "report JSON round-trips" `Quick
            test_report_json_shape;
        ] );
      ( "faults",
        [
          Alcotest.test_case "full crash stalls, terminates" `Quick
            test_crash_all_stalls;
          Alcotest.test_case "crash subset still commits" `Quick
            test_crash_subset_decides;
          Alcotest.test_case "churn hole freezes commit" `Quick
            test_churn_hole_blocks_commit;
          Alcotest.test_case "validity against proposals, not the batch" `Quick
            test_validity_against_proposals;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "dynamic+churn load smoke" `Quick
            test_fuzz_dynamic_churn_smoke;
        ] );
    ]
