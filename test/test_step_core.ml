(* Differential test: the runner path and the model-checker stepper are two
   views of ONE lockstep semantics. We sample plan paths from the MC stepper
   (all four algorithms, static and dynamic environments, crash and churn
   schedules, armed plans, fixed seeds), replay the identical plans through
   the runner via [Adversary.of_schedule], and assert byte-identical
   per-round states and decisions. Along the way every node's key is
   checked against a full rehash, and every successor key the stepper
   predicted without stepping against the key of the built successor.

   The MC side renders each node with [Explore.SYSTEM_DEBUG.snapshot]
   (pid-indexed fate + state key + global facts); the runner side
   reconstructs the same rendering from its [observe] stream and outcome
   records. A node at round [r] is the system after the compute phase of
   iteration [r], i.e. after the runner computed round [r - 1].

   The "allocation" group holds the shared round path to a words budget. *)

module G = Anon_giraf
module K = Anon_kernel
module C = Anon_consensus
module Mc_cs = Anon_mc.Consensus_sys
module Mc_ws = Anon_mc.Ws_sys
module Ch = Anon_chaos

let check_string = Alcotest.(check string)

(* The replay of an admissible path meets the environment its plans were
   enumerated for: the search and the runner read one stable source. *)
let check_replay_env ~label ~seed (trace : G.Trace.t) =
  Alcotest.(check (list string))
    (Printf.sprintf "%s seed=%d: replay meets %s" label seed (G.Env.to_string trace.env))
    []
    (List.map (Format.asprintf "%a" G.Checker.pp_violation) (G.Checker.check_env trace))

(* Sample one plan path through a system: at every node pick a uniformly
   random successor until [depth] steps or a terminal node. Returns the
   plans and the snapshots of every node along the path (root included). *)
let sample_path (module Sys : Anon_mc.Explore.SYSTEM_DEBUG) ~rng ~depth =
  (* Every node doubles as a digest property check: the incrementally
     maintained canonical key (per-slot version cache, piecewise-fed hash
     streams) must equal the from-scratch rehash of the rendered views. *)
  let check_digest s =
    check_string "incremental key = full rehash" (Sys.key_full s) (Sys.key s)
  in
  (* ... and a prediction check: every branch whose key [expand] predicted
     without stepping must name the key of the successor [apply] builds. *)
  let check_predictions s branches =
    List.iter
      (function
        | Anon_mc.Explore.Predicted { plan; key } ->
          check_string "predicted key = key (apply s plan)" (Sys.key (Sys.apply s plan)) key
        | Anon_mc.Explore.Stepped _ -> ())
      branches
  in
  let rec go s plans snaps steps =
    if steps = 0 || Sys.terminal s then (List.rev plans, List.rev snaps)
    else
      match Sys.expand s with
      | [] -> (List.rev plans, List.rev snaps)
      | branches ->
        check_predictions s branches;
        let plan, s' =
          match List.nth branches (K.Rng.int rng (List.length branches)) with
          | Anon_mc.Explore.Stepped { plan; sys; _ } -> (plan, sys)
          | Anon_mc.Explore.Predicted { plan; _ } -> (plan, Sys.apply s plan)
        in
        check_digest s';
        go s' (plan :: plans) (Sys.snapshot s' :: snaps) (steps - 1)
  in
  let s0 = Sys.init () in
  check_digest s0;
  let plans, snaps = go s0 [] [] depth in
  (plans, Sys.snapshot s0 :: snaps)

(* --- consensus ---------------------------------------------------------- *)

let consensus_diff (module A : Mc_cs.MODEL) ?(armed = false) ~label ~env ~inputs
    ~crash ~churn ~max_delay ~depth ~seed () =
  let module Sys =
    (val Mc_cs.make_probe (module A) { Mc_cs.inputs; crash; churn; env; max_delay; armed })
  in
  let rng = K.Rng.make seed in
  let plans, mc_snaps = sample_path (module Sys) ~rng ~depth in
  let m = List.length plans in
  let module Run = G.Runner.Make (A) in
  let states = Hashtbl.create 64 in
  let observe ~pid ~round st =
    Hashtbl.replace states (round, pid) (A.state_key st)
  in
  let config =
    {
      G.Runner.inputs = Array.of_list inputs;
      crash;
      churn;
      adversary = G.Adversary.of_schedule ~env plans;
      horizon = m + 1;
      seed;
      stop_on_decision = false;
    }
  in
  let outcome = Run.run ~observe config in
  if not armed then check_replay_env ~label ~seed outcome.G.Runner.trace;
  let n = List.length inputs in
  let dec_round p =
    List.find_map
      (fun (q, d, _) -> if q = p then Some d else None)
      outcome.G.Runner.decisions
  in
  (* Reconstruct the MC snapshot of node [r] from runner observations.
     Fate precedence mirrors the stepper: a crasher that was still live at
     its latch is Crashed from the next node on (even if it decided during
     its final compute); a process that halted before the latch keeps H. *)
  let expected r =
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "r%d\n" r);
    for p = 0 to n - 1 do
      let halted = match dec_round p with Some d -> d <= r - 1 | None -> false in
      let crashed =
        match G.Crash.event crash p with
        | Some { round = c; _ } when c < r -> (
          match dec_round p with Some d -> d > c - 2 | None -> true)
        | Some _ | None -> false
      in
      Buffer.add_string b
        (if crashed then Printf.sprintf "p%d X\n" p
         else if halted then Printf.sprintf "p%d H\n" p
         else if G.Churn.away churn ~pid:p ~round:r then Printf.sprintf "p%d A\n" p
         else
           match Hashtbl.find_opt states (r - 1, p) with
           | Some key -> Printf.sprintf "p%d L %s\n" p key
           | None -> Printf.sprintf "p%d ?missing-observation\n" p)
    done;
    let decided =
      List.sort compare
        (List.filter_map
           (fun (p, d, v) ->
             if d <= r - 1 then Some (p, K.Value.to_string v) else None)
           outcome.G.Runner.decisions)
    in
    Buffer.add_string b
      ("decided "
      ^ String.concat ";"
          (List.map (fun (p, v) -> Printf.sprintf "p%d=%s" p v) decided));
    Buffer.contents b
  in
  List.iteri
    (fun i mc_snap ->
      check_string
        (Printf.sprintf "%s seed=%d node %d" label seed (i + 1))
        mc_snap (expected (i + 1)))
    mc_snaps

(* --- weak set ------------------------------------------------------------ *)

let pp_op buf (start, op) =
  Buffer.add_string buf
    (match op with
    | G.Runner.Ws.Do_get -> Printf.sprintf "%dG" start
    | G.Runner.Ws.Do_add v -> Printf.sprintf "%dA%s" start (K.Value.to_string v)
    | G.Runner.Ws.Do_add_with _ -> Printf.sprintf "%dF" start)

let ws_diff ~label ~env ~n ~crash ~max_delay ~ops_per_client ~depth ~seed () =
  let module Sys =
    (val Mc_ws.make_probe
           { Mc_ws.n; crash; env; max_delay; armed = false; ops_per_client })
  in
  let rng = K.Rng.make seed in
  let plans, mc_snaps = sample_path (module Sys) ~rng ~depth in
  let m = List.length plans in
  let workload = Ch.Scenario.mc_workload ~n ~ops_per_client in
  let module Run = G.Runner.Ws.Make (C.Weak_set_ms) in
  let states = Hashtbl.create 64 in
  let observe ~pid ~round st =
    Hashtbl.replace states (round, pid) (C.Weak_set_ms.state_key st)
  in
  let config =
    {
      G.Runner.Ws.n;
      crash;
      churn = G.Churn.none ~n;
      adversary = G.Adversary.of_schedule ~env plans;
      horizon = m + 1;
      seed;
    }
  in
  let outcome = Run.run ~observe config ~workload in
  check_replay_env ~label ~seed outcome.G.Runner.Ws.trace;
  let adds = outcome.G.Runner.Ws.adds in
  (* Number of operations client [p] has started during the op phases of
     rounds [<= r] (op_time = 2k + 1). *)
  let ops_started p r =
    List.length
      (List.filter
         (function
           | G.Checker.Ws_add { add_client; add_invoked; _ } ->
             add_client = p && add_invoked <= (2 * r) + 1
           | G.Checker.Ws_get { get_client; get_invoked; _ } ->
             get_client = p && get_invoked <= (2 * r) + 1)
         outcome.G.Runner.Ws.ops)
  in
  let expected r =
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "r%d\n" r);
    for p = 0 to n - 1 do
      let crashed =
        match G.Crash.event crash p with Some ev -> ev.round < r | None -> false
      in
      if crashed then Buffer.add_string b (Printf.sprintf "p%d X\n" p)
      else begin
        (match Hashtbl.find_opt states (r - 1, p) with
        | Some key -> Buffer.add_string b (Printf.sprintf "p%d L %s b:" p key)
        | None -> Buffer.add_string b (Printf.sprintf "p%d ?missing b:" p));
        let blocked =
          List.find_map
            (fun (a : G.Runner.Ws.add_record) ->
              if
                a.client = p
                && a.invoked_round <= r - 1
                && (match a.completed_round with None -> true | Some c -> c >= r)
              then Some a.value
              else None)
            adds
        in
        Buffer.add_string b
          (match blocked with Some v -> K.Value.to_string v | None -> "-");
        Buffer.add_string b " w:";
        let script = Option.value ~default:[] (List.assoc_opt p workload) in
        let remaining =
          let consumed = ops_started p (r - 1) in
          List.filteri (fun i _ -> i >= consumed) script
        in
        List.iter (fun o -> pp_op b o) remaining;
        Buffer.add_char b '\n'
      end
    done;
    let invoked =
      List.fold_left
        (fun acc (a : G.Runner.Ws.add_record) ->
          if a.invoked_round <= r - 1 then K.Value.Set.add a.value acc else acc)
        K.Value.Set.empty adds
    in
    let completed =
      List.fold_left
        (fun acc (a : G.Runner.Ws.add_record) ->
          match a.completed_round with
          | Some c when c <= r - 1 -> K.Value.Set.add a.value acc
          | Some _ | None -> acc)
        K.Value.Set.empty adds
    in
    let set_str set =
      String.concat "," (List.map K.Value.to_string (K.Value.Set.elements set))
    in
    Buffer.add_string b
      (Printf.sprintf "inv:%s/comp:%s" (set_str invoked) (set_str completed));
    Buffer.contents b
  in
  List.iteri
    (fun i mc_snap ->
      check_string
        (Printf.sprintf "%s seed=%d node %d" label seed (i + 1))
        mc_snap (expected (i + 1)))
    mc_snaps

(* --- the matrix ---------------------------------------------------------- *)

let inputs3 = [ 3; 1; 2 ]
let crash_none = G.Crash.none ~n:3
let churn_none = G.Churn.none ~n:3

let crash1 kind round =
  G.Crash.of_events ~n:3 [ { G.Crash.pid = 1; round; broadcast = kind } ]

let churn1 pid leave rejoin = G.Churn.of_events ~n:3 [ { G.Churn.pid; leave; rejoin } ]

let es = (module C.Es_consensus : Mc_cs.MODEL)
let ess = (module C.Ess_consensus : Mc_cs.MODEL)
let esu = (module C.Es_consensus.No_written_old_guard : Mc_cs.MODEL)

let consensus_cases =
  [
    ("es static", es, G.Env.Es { gst = 2 }, crash_none, churn_none, 6, [ 1; 2; 3 ]);
    ( "es crash-subset",
      es,
      G.Env.Es { gst = 2 },
      crash1 G.Crash.Broadcast_subset 2,
      churn_none,
      6,
      [ 4; 5 ] );
    ( "es crash-silent",
      es,
      G.Env.Es { gst = 2 },
      crash1 G.Crash.Silent 1,
      churn_none,
      5,
      [ 6 ] );
    ( "es crash-bcast-all",
      es,
      G.Env.Es { gst = 2 },
      crash1 G.Crash.Broadcast_all 2,
      churn_none,
      5,
      [ 7; 27; 28; 29 ] );
    ( "es crash-bcast-all late",
      es,
      G.Env.Es { gst = 2 },
      crash1 G.Crash.Broadcast_all 3,
      churn_none,
      5,
      [ 7; 30 ] );
    ( "es churn-rejoin",
      es,
      G.Env.Es { gst = 2 },
      crash_none,
      churn1 1 2 (Some 4),
      6,
      [ 8; 9 ] );
    ( "es churn-leave",
      es,
      G.Env.Es { gst = 3 },
      crash_none,
      churn1 0 1 None,
      5,
      [ 10 ] );
    ("es ms", es, G.Env.Ms, crash_none, churn_none, 5, [ 11 ]);
    ("ess static", ess, G.Env.Ess { gst = 2 }, crash_none, churn_none, 6, [ 12; 13 ]);
    ( "ess crash+churn",
      ess,
      G.Env.Ess { gst = 2 },
      G.Crash.of_events ~n:3
        [ { G.Crash.pid = 0; round = 2; broadcast = G.Crash.Broadcast_subset } ],
      churn1 2 1 (Some 3),
      6,
      [ 14 ] );
    ( "es dynamic churn",
      es,
      G.Env.Dynamic { stability = 2; rooted = true },
      crash_none,
      churn1 1 2 (Some 4),
      6,
      [ 15 ] );
    ( "es-unguarded crash",
      esu,
      G.Env.Es { gst = 2 },
      crash1 G.Crash.Broadcast_subset 2,
      churn_none,
      6,
      [ 16 ] );
    ( "ess dynamic",
      ess,
      G.Env.Dynamic { stability = 3; rooted = true },
      crash_none,
      churn_none,
      6,
      [ 17 ] );
  ]

let ws_cases =
  [
    ("ws ms", G.Env.Ms, 2, G.Crash.none ~n:2, 1, 1, 5, [ 21; 22 ]);
    ("ws sync", G.Env.Sync, 2, G.Crash.none ~n:2, 1, 1, 5, [ 23 ]);
    ( "ws ms crash",
      G.Env.Ms,
      3,
      G.Crash.of_events ~n:3
        [ { G.Crash.pid = 2; round = 2; broadcast = G.Crash.Broadcast_subset } ],
      1,
      1,
      5,
      [ 24 ] );
    ("ws ms delay2", G.Env.Ms, 2, G.Crash.none ~n:2, 2, 1, 4, [ 25 ]);
    ("ws ess", G.Env.Ess { gst = 1 }, 3, G.Crash.none ~n:3, 1, 1, 5, [ 26; 43; 44 ]);
  ]

(* Walks where a predicted key is easy to get wrong: two churners whose
   equal Away views rejoin from different inputs, a crasher that decides
   in its crash round (view [H], then [X]), and armed plans. *)
let churn2_same_rounds ~leave ~rejoin =
  G.Churn.of_events ~n:3
    [
      { G.Churn.pid = 0; leave; rejoin = Some rejoin };
      { G.Churn.pid = 2; leave; rejoin = Some rejoin };
    ]

let prediction_cases =
  [
    ( "es churn-2 same rounds",
      es,
      false,
      G.Env.Es { gst = 3 },
      crash_none,
      churn2_same_rounds ~leave:2 ~rejoin:3,
      5,
      [ 31; 32; 33; 34 ] );
    (* Timely rounds before GST can make the two churners' Live views
       equal before they leave, so only their inputs tell the two
       departures apart. *)
    ( "es churn-2 converged, leave 6 rejoin 7",
      es,
      false,
      G.Env.Es { gst = 10 },
      crash_none,
      churn2_same_rounds ~leave:6 ~rejoin:7,
      7,
      [ 46; 47; 49; 54 ] );
    ( "es ms decide in crash round",
      es,
      false,
      G.Env.Ms,
      crash1 G.Crash.Broadcast_subset 5,
      churn_none,
      5,
      [ 35; 36; 37; 38 ] );
    ("es armed", es, true, G.Env.Es { gst = 2 }, crash_none, churn_none, 5, [ 39; 40 ]);
    ( "ess armed crash",
      ess,
      true,
      G.Env.Ess { gst = 2 },
      crash1 G.Crash.Broadcast_subset 3,
      churn_none,
      5,
      [ 41; 42 ] );
  ]

let consensus_tests =
  List.map
    (fun (label, model, armed, env, crash, churn, depth, seeds) ->
      Alcotest.test_case label `Quick (fun () ->
          List.iter
            (fun seed ->
              consensus_diff model ~armed ~label ~env ~inputs:inputs3 ~crash ~churn
                ~max_delay:1 ~depth ~seed ())
            seeds))
    (List.map
       (fun (label, model, env, crash, churn, depth, seeds) ->
         (label, model, false, env, crash, churn, depth, seeds))
       consensus_cases
    @ prediction_cases)

let ws_tests =
  List.map
    (fun (label, env, n, crash, max_delay, ops_per_client, depth, seeds) ->
      Alcotest.test_case label `Quick (fun () ->
          List.iter
            (fun seed ->
              ws_diff ~label ~env ~n ~crash ~max_delay ~ops_per_client ~depth
                ~seed ())
            seeds))
    ws_cases

(* --- allocation budget of the round path ---------------------------------- *)

(* Words are counted, not time, so the budgets are deterministic. Each
   count is net of the [Gc.minor_words] probe's own words. *)
module Es_core = G.Step_core.Consensus (C.Es_consensus)

let words f =
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let a = Gc.minor_words () in
  f ();
  Gc.minor_words () -. a -. probe

let es_core ~n ~gst =
  Es_core.create
    ~inputs:(Array.init n (fun p -> p mod 2))
    ~crash:(G.Crash.none ~n) ~churn:(G.Churn.none ~n)
    ~env:(G.Env.Es { gst })

(* A round without crash or churn events allocates nothing at
   [begin_round]. *)
let test_quiet_begin_round () =
  let core = es_core ~n:3 ~gst:4 in
  Alcotest.(check (float 0.)) "1000 quiet begin_rounds, minor words" 0.
    (words (fun () ->
         for _ = 1 to 1000 do
           Es_core.begin_round core
         done))

(* An n=3 ES instance at GST 4 driven to its decision through the three
   phases, as the multiplexer steps one, stays within its words per
   round: the figure measured when the budget was set, plus 10%. *)
let es_round_words = 480.

let test_es_round_budget () =
  let core = es_core ~n:3 ~gst:4 in
  let adversary = G.Adversary.es ~gst:4 () in
  let rng = K.Rng.make 7 in
  let crash_rng = K.Rng.split rng in
  let rounds = ref 0 in
  let total =
    words (fun () ->
        while not (Es_core.all_decided core) do
          incr rounds;
          Es_core.begin_round core;
          ignore (Es_core.compute core : C.Es_consensus.msg G.Dispatch.outbound list);
          let plan = G.Adversary.plan adversary (Es_core.ctx core) rng in
          ignore (Es_core.deliver core ~plan ~crash_rng : G.Dispatch.stats)
        done)
  in
  let per_round = total /. float_of_int !rounds in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per round <= %.1f" per_round (1.1 *. es_round_words))
    true
    (per_round <= 1.1 *. es_round_words)

(* The stop rule is [undecided_correct_stayers = []] at every round of
   random ES cores with crashes and churn, and costs no words. *)
let test_all_decided () =
  let rng = K.Rng.make 5 in
  for _ = 1 to 40 do
    let n = 2 + K.Rng.int rng 4 in
    let crash = G.Crash.random ~n ~failures:(K.Rng.int rng n) ~max_round:8 rng in
    let churn =
      match G.Crash.correct crash with
      | pid :: _ when K.Rng.bool rng ->
        let leave = 1 + K.Rng.int rng 8 in
        let rejoin = if K.Rng.bool rng then Some (leave + 1 + K.Rng.int rng 3) else None in
        G.Churn.of_events ~n [ { G.Churn.pid; leave; rejoin } ]
      | _ -> G.Churn.none ~n
    in
    let gst = 1 + K.Rng.int rng 6 in
    let core =
      Es_core.create ~inputs:(Array.init n (fun p -> p mod 3)) ~crash ~churn
        ~env:(G.Env.Es { gst })
    in
    let adversary = G.Adversary.es ~gst () in
    let crash_rng = K.Rng.split rng in
    for _ = 1 to 16 do
      Alcotest.(check bool)
        "all_decided = (undecided_correct_stayers = [])"
        (Es_core.undecided_correct_stayers core = [])
        (Es_core.all_decided core);
      Alcotest.(check (float 0.)) "100 all_decided calls, minor words" 0.
        (words (fun () ->
             for _ = 1 to 100 do
               ignore (Es_core.all_decided core : bool)
             done));
      Es_core.begin_round core;
      ignore (Es_core.compute core : C.Es_consensus.msg G.Dispatch.outbound list);
      let plan = G.Adversary.plan adversary (Es_core.ctx core) rng in
      ignore (Es_core.deliver core ~plan ~crash_rng : G.Dispatch.stats)
    done
  done

let allocation_tests =
  [
    Alcotest.test_case "quiet begin_round allocates nothing" `Quick test_quiet_begin_round;
    Alcotest.test_case "es n=3 words per round within budget" `Quick test_es_round_budget;
    Alcotest.test_case "all_decided is the stop rule, allocates nothing" `Quick
      test_all_decided;
  ]

let () =
  Alcotest.run "step_core"
    [ ("consensus", consensus_tests); ("weak-set", ws_tests); ("allocation", allocation_tests) ]
