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

   The "round" group holds one lockstep round of the set-shaped schedule
   against a link-by-link reference, and the "allocation" group the
   shared round path to a words budget. *)

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

(* --- one round against a link-by-link reference ---------------------------- *)

(* A probe algorithm: process [p] broadcasts a fresh one-letter string
   that depends on [p] and the round, so equal messages from different
   senders are distinct copies; it never decides, keeps the last inbox
   it computed on, and forces [fresh] on every other compute. *)
module Probe = struct
  let name = "round-probe"

  type msg = string

  type state = { me : int; seen : int * msg list * (int * msg) list option }

  let msg_compare = String.compare
  let msg_size _ = 1
  let leader _ = None
  let msg me round = String.make 1 (Char.chr (97 + ((me + round) mod 3)))
  let initialize v = ({ me = v; seen = (0, [], None) }, msg v 1)

  let compute st ~round ~inbox:{ G.Intf.current; fresh } =
    let fresh = if (st.me + round) mod 2 = 0 then Some (Lazy.force fresh) else None in
    ({ st with seen = (round, current, fresh) }, msg st.me (round + 1), None)
end

module Probe_core = G.Step_core.Consensus (Probe)

(* The round's deliveries link by link: each sender's links found with
   [List.assoc_opt] in [links], crashers as {!G.Dispatch} documents
   them. Returns every delivery as [(sender, receiver, arrival)],
   self-deliveries included, and the stats. *)
let reference_round ~round ~outgoing ~crashing ~eligible ~receivers ~links ~crash_rng =
  let log = ref [] and timely = ref [] and delivered = ref 0 and count = ref 0 in
  List.iter
    (fun { G.Dispatch.sender; msg = _ } ->
      log := (sender, sender, round) :: !log;
      let cur = ref [] in
      let deliver (d : G.Adversary.delivery) =
        if d.receiver <> sender && eligible d.receiver then begin
          let arrival = max d.arrival round in
          log := (sender, d.receiver, arrival) :: !log;
          incr delivered;
          if arrival = round then begin
            incr count;
            cur := d.receiver :: !cur
          end
        end
      in
      let others () = List.filter (fun q -> q <> sender) receivers in
      let entry = List.assoc_opt sender links in
      (match List.find_opt (fun (ev : G.Crash.event) -> ev.pid = sender) crashing with
      | None -> Option.iter (List.iter deliver) entry
      | Some ev -> (
        match (ev.broadcast, entry) with
        | G.Crash.Silent, _ -> ()
        | G.Crash.Broadcast_subset, Some ds -> List.iter deliver ds
        | G.Crash.Broadcast_all, _ ->
          List.iter (fun q -> deliver { receiver = q; arrival = round }) (others ())
        | G.Crash.Broadcast_subset, None ->
          List.iter
            (fun q ->
              let arrival =
                if K.Rng.bool crash_rng then round else round + K.Rng.int_in crash_rng 1 3
              in
              deliver { receiver = q; arrival })
            (K.Rng.subset crash_rng ~p:0.5 (others ()))));
      if !cur <> [] then timely := (sender, K.Pidset.of_list !cur) :: !timely)
    outgoing;
  (List.sort compare !log, (!timely, !delivered, !count))

(* What a receiver's mailbox [(arrival, sent, sender, msg)] yields when it
   takes round [round]: [fresh] in canonical order (ascending arrival,
   sent round and message, equal messages by descending sender), and
   [current] keeping of each equal run the copy [fresh] lists last. *)
let reference_take ~round mailbox =
  let ready, rest = List.partition (fun (a, _, _, _) -> a <= round) mailbox in
  let ready =
    List.sort
      (fun (a1, s1, p1, m1) (a2, s2, p2, m2) ->
        compare (a1, s1, m1, -p1) (a2, s2, m2, -p2))
      ready
  in
  let rec current = function
    | (_, s, _, m) :: ((_, s', _, m') :: _ as tl) when s = round && s' = round && m = m' ->
      current tl
    | (_, s, _, m) :: tl when s = round -> m :: current tl
    | _ :: tl -> current tl
    | [] -> []
  in
  (current ready, List.map (fun (_, s, _, m) -> (s, m)) ready, rest)

let same_copies l1 l2 = List.length l1 = List.length l2 && List.for_all2 ( == ) l1 l2

(* One random run: every built-in adversary (noise, [dynamic:S] rooted or
   not), sometimes wrapped with duplicates, extra delay and reorder and
   now and then an inadmissible injector, crashers of all three
   broadcast kinds, n up to 130 so that sets cross word boundaries. The
   reference reads a plan's links ({!G.Adversary.links}), or for a
   wrapped adversary the injectors' own links ({!Ch.Fault.rewrite}),
   where an echo can repeat a link the injector moved. Each round, the
   deliveries of [preview]'s groups and the stats [deliver] returns
   equal the reference's, and at the next round every receiver's
   [current] (and [fresh], when its compute forces it) equals what the
   reference mailbox yields. *)
let prop_round_matches_links =
  QCheck.Test.make ~name:"round = link-by-link reference" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = K.Rng.make seed in
      let n = if K.Rng.chance rng 0.2 then K.Rng.int_in rng 60 130 else K.Rng.int_in rng 1 12 in
      let gst = K.Rng.int_in rng 1 6 in
      let noise = K.Rng.pick rng [ 0.0; 0.3 ] and max_delay = K.Rng.int_in rng 1 3 in
      let adversary =
        K.Rng.pick rng
          [
            G.Adversary.sync ();
            G.Adversary.ms ~noise ~max_delay ();
            G.Adversary.es ~gst ~noise ~max_delay ();
            G.Adversary.ess ~gst ~noise ~max_delay ();
            G.Adversary.es_blocking ~gst ();
            G.Adversary.ess_blocking ~gst ();
            G.Adversary.dynamic ~stability:(K.Rng.int_in rng 1 3) ~rooted:(K.Rng.bool rng) ~noise
              ~max_delay ();
            G.Adversary.async ~max_delay ();
          ]
      in
      let fault =
        if K.Rng.bool rng then
          Some
            {
              Ch.Fault.duplicate = 0.3;
              extra_delay = 0.3;
              max_extra = K.Rng.int_in rng 1 2;
              reorder = 0.5;
              inadmissible =
                K.Rng.pick rng
                  Ch.Fault.
                    [
                      None;
                      None;
                      Some (Drop_obligated { from_round = 1 });
                      Some (Unstable_source { from_round = 1 });
                      Some (Root_starvation { from_round = 1 });
                      Some (Stability_break { from_round = 1 });
                    ];
            }
        else None
      in
      let wrapped =
        match fault with Some spec -> Ch.Fault.wrap spec adversary | None -> adversary
      in
      let horizon = 8 in
      let crash =
        G.Crash.of_events ~n
          (List.filter_map
             (fun pid ->
               if K.Rng.chance rng (if n > 12 then 0.05 else 0.25) then
                 Some
                   {
                     G.Crash.pid;
                     round = K.Rng.int_in rng 1 horizon;
                     broadcast = K.Rng.pick rng G.Crash.[ Silent; Broadcast_all; Broadcast_subset ];
                   }
               else None)
             (List.init n Fun.id))
      in
      let core =
        Probe_core.create ~inputs:(Array.init n Fun.id) ~crash ~churn:(G.Churn.none ~n)
          ~env:(G.Adversary.env wrapped)
      in
      let mailbox = Array.make n [] in
      let crash_rng = K.Rng.split rng in
      let ok = ref true in
      let fail what = if !ok then begin ok := false; Printf.printf "seed %d: %s\n" seed what end in
      for round = 1 to horizon do
        Probe_core.begin_round core;
        let outgoing = Probe_core.compute core in
        (* Every receiver that took round [round - 1] saw what the
           reference mailbox yields. *)
        for p = 0 to n - 1 do
          match (Probe_core.fate core p, Probe_core.state core p) with
          | G.Step_core.Live, Some { seen = k, current, fresh; _ } when k = round - 1 && k > 0 ->
            let current', fresh', rest = reference_take ~round:k mailbox.(p) in
            mailbox.(p) <- rest;
            if not (same_copies current current') then
              fail (Printf.sprintf "p%d current at %d" p k);
            (match fresh with
            | Some fresh ->
              if
                not
                  (List.length fresh = List.length fresh'
                  && List.for_all2 (fun (s, m) (s', m') -> s = s' && m == m') fresh fresh')
              then fail (Printf.sprintf "p%d fresh at %d" p k)
            | None -> ())
          | _ -> ()
        done;
        let ctx = Probe_core.ctx core in
        let raw =
          match fault with
          | Some spec ->
            let rng = K.Rng.copy rng in
            let inner = G.Adversary.plan adversary ctx rng in
            Some (Ch.Fault.rewrite spec ~env:(G.Adversary.env adversary) ctx rng inner).deliveries
          | None -> None
        in
        let plan = G.Adversary.plan wrapped ctx rng in
        let links = match raw with Some links -> links | None -> G.Adversary.links plan in
        let eligible q = Probe_core.fate core q = G.Step_core.Live in
        let crashing =
          List.filter_map (G.Crash.event crash) (Probe_core.crashing_pids core)
        in
        let previewed, _ = Probe_core.preview core ~plan ~crash_rng:(K.Rng.copy crash_rng) in
        let scheduled =
          List.concat_map
            (fun (s, gs) ->
              (s, s, round)
              :: List.concat_map
                   (fun (g : G.Adversary.group) ->
                     List.filter_map
                       (fun q -> if q = s then None else Some (s, q, g.arrival))
                       (K.Pidset.to_list g.receivers))
                   gs)
            previewed.groups
        in
        let expected, (timely, delivered, timely_count) =
          reference_round ~round ~outgoing ~crashing ~eligible ~receivers:ctx.alive ~links
            ~crash_rng:(K.Rng.copy crash_rng)
        in
        if List.sort compare scheduled <> expected then
          fail (Printf.sprintf "schedule at %d" round);
        let stats = Probe_core.deliver core ~plan ~crash_rng in
        if stats.delivered <> delivered || stats.timely_count <> timely_count then
          fail (Printf.sprintf "counts at %d" round);
        if stats.timely <> timely then fail (Printf.sprintf "timely sets at %d" round);
        let msg_of = Array.make n "" in
        List.iter (fun { G.Dispatch.sender; msg } -> msg_of.(sender) <- msg) outgoing;
        List.iter
          (fun (s, q, a) -> mailbox.(q) <- (a, round, s, msg_of.(s)) :: mailbox.(q))
          expected;
        List.iter (fun p -> mailbox.(p) <- []) (Probe_core.crashing_pids core)
      done;
      !ok)

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

(* One pre-GST [es_blocking] round, plan plus deliver, costs words in
   proportion to the broadcasts, not to the links: doubling n from 64 to
   128 may at most multiply them by 2.5 (4 would be quadratic). *)
let test_blocking_round_linear () =
  let round_words n =
    let core = es_core ~n ~gst:40 in
    let adversary = G.Adversary.es_blocking ~gst:40 () in
    let rng = K.Rng.make 3 in
    let crash_rng = K.Rng.split rng in
    Es_core.begin_round core;
    ignore (Es_core.compute core : C.Es_consensus.msg G.Dispatch.outbound list);
    let ctx = Es_core.ctx core in
    words (fun () ->
        let plan = G.Adversary.plan adversary ctx rng in
        ignore (Es_core.deliver core ~plan ~crash_rng : G.Dispatch.stats))
  in
  let w64 = round_words 64 and w128 = round_words 128 in
  Alcotest.(check bool)
    (Printf.sprintf "n=128 %.0f words <= 2.5 x n=64 %.0f" w128 w64)
    true
    (w128 <= 2.5 *. w64)

let allocation_tests =
  [
    Alcotest.test_case "quiet begin_round allocates nothing" `Quick test_quiet_begin_round;
    Alcotest.test_case "es n=3 words per round within budget" `Quick test_es_round_budget;
    Alcotest.test_case "all_decided is the stop rule, allocates nothing" `Quick
      test_all_decided;
    Alcotest.test_case "blocking round words linear in n" `Quick test_blocking_round_linear;
  ]

let () =
  Alcotest.run "step_core"
    [
      ("consensus", consensus_tests);
      ("weak-set", ws_tests);
      ("round", [ QCheck_alcotest.to_alcotest prop_round_matches_links ]);
      ("allocation", allocation_tests);
    ]
