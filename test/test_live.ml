(* The live backend: config validation, wire/pacer units, and the
   lockstep-vs-live differential — at zero transport faults with generous
   timeouts and a fixed seed, every algorithm must decide exactly what
   the lockstep runner decides under the synchronous adversary, per pid
   and per round. Safety is checked on every live outcome, fault-heavy
   runs included. *)

module G = Anon_giraf
module C = Anon_consensus
module L = Anon_live
module Chaos = Anon_chaos

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let invalid f =
  match f () with
  | exception G.Config_error.Invalid_config _ -> ()
  | _ -> Alcotest.fail "expected Invalid_config"

(* --- Netfault ---------------------------------------------------------------- *)

let test_netfault_parse () =
  let s = Chaos.Netfault.of_string "drop:0.1,dup:0.05,delay:0.2:0.01" in
  check_bool "not noop" false (Chaos.Netfault.is_noop s);
  Alcotest.(check (float 1e-9)) "drop" 0.1 s.Chaos.Netfault.drop;
  Alcotest.(check (float 1e-9)) "dup" 0.05 s.Chaos.Netfault.duplicate;
  Alcotest.(check (float 1e-9)) "delay" 0.2 s.Chaos.Netfault.delay;
  Alcotest.(check (float 1e-9)) "max_delay" 0.01 s.Chaos.Netfault.max_delay_s;
  check_bool "none is noop" true (Chaos.Netfault.is_noop (Chaos.Netfault.of_string "none"));
  check_bool "empty is noop" true (Chaos.Netfault.is_noop (Chaos.Netfault.of_string ""));
  (* Round-trips through the canonical rendering. *)
  let s' = Chaos.Netfault.of_string (Chaos.Netfault.to_string s) in
  Alcotest.(check (float 1e-9)) "roundtrip drop" s.Chaos.Netfault.drop s'.Chaos.Netfault.drop;
  let sv = Chaos.Netfault.of_string "sever:partition-pulse:3" in
  check_bool "sever parsed" true (sv.Chaos.Netfault.sever <> None)

let test_netfault_invalid () =
  List.iter
    (fun raw -> invalid (fun () -> Chaos.Netfault.of_string raw))
    [
      "drop:1.5";  (* out of range *)
      "drop:-0.1";  (* negative *)
      "drop:nan";  (* NaN never satisfies a probability *)
      "dup:inf";
      "delay:0.5:-1.0";  (* negative bound *)
      "delay:0.5:0";  (* positive probability, zero bound *)
      "drop:0.1,drop:0.2";  (* duplicate clause *)
      "gibberish";
      "sever:no-such-topology";
      "drop:";
    ]

(* --- Transport ------------------------------------------------------------------ *)

(* Every copy the wire hands back, in the order it handed them:
   [(dst, due, payload)]. *)
let copies () =
  let got = ref [] in
  let deliver payload ~dst ~due = got := (dst, due, payload) :: !got in
  (got, deliver)

let test_transport_faultless_fifo () =
  let t = L.Transport.create ~n:3 ~faults:Chaos.Netfault.none ~seed:7 () in
  let got, deliver = copies () in
  L.Transport.broadcast t ~now:5 ~src:0 ~round:1 (deliver "r1");
  L.Transport.broadcast t ~now:5 ~src:0 ~round:2 (deliver "r2");
  Alcotest.(check (list (triple int int string)))
    "each copy due at once, in send order per link, none to self"
    [ (1, 5, "r1"); (2, 5, "r1"); (1, 5, "r2"); (2, 5, "r2") ]
    (List.rev !got);
  let st = L.Transport.stats t in
  check_int "copies: 2 broadcasts x 2 peers" 4 st.L.Transport.copies_sent;
  check_int "no faults injected" 0
    (st.L.Transport.retransmissions + st.L.Transport.duplicated + st.L.Transport.delayed
   + st.L.Transport.severed)

let test_transport_faulty_delivers_eventually () =
  (* Reliability layer: even at drop 0.9 every copy has a bounded due
     time — messages are delayed, never lost. *)
  let faults = { Chaos.Netfault.none with Chaos.Netfault.drop = 0.9 } in
  let t = L.Transport.create ~n:2 ~faults ~seed:11 () in
  let got, deliver = copies () in
  for r = 1 to 20 do
    L.Transport.broadcast t ~now:0 ~src:0 ~round:r (deliver r)
  done;
  check_int "all 20 reach p1 despite drop:0.9" 20
    (List.length (List.filter (fun (dst, _, _) -> dst = 1) !got));
  (* Twelve lost attempts back off 10 ms doubling to a 160 ms cap:
     under 1.5 s in all. *)
  check_bool "every due time bounded and not before the send" true
    (List.for_all (fun (_, due, _) -> due >= 0 && due < 1_500_000_000) !got);
  check_bool "drops recovered by retransmission" true
    ((L.Transport.stats t).L.Transport.retransmissions > 0)

(* --- Pacer ------------------------------------------------------------------- *)

let test_pacer_backoff () =
  let p = L.Pacer.create ~init_s:0.01 ~max_s:0.08 () in
  Alcotest.(check (float 1e-9)) "starts at init" 0.01 (L.Pacer.current p);
  L.Pacer.note_wait p;
  L.Pacer.on_expiry p;
  L.Pacer.on_expiry p;
  Alcotest.(check (float 1e-9)) "grew x4" 0.04 (L.Pacer.current p);
  L.Pacer.note_wait p;
  L.Pacer.on_expiry p;
  L.Pacer.on_expiry p;
  Alcotest.(check (float 1e-9)) "capped at max" 0.08 (L.Pacer.current p);
  for _ = 1 to 100 do
    L.Pacer.on_quorum p
  done;
  Alcotest.(check (float 1e-9)) "decays back to init" 0.01 (L.Pacer.current p);
  check_int "expiries counted" 4 (L.Pacer.expiries p);
  Alcotest.(check (list (float 1e-9))) "trajectory" [ 0.01; 0.04 ] (L.Pacer.trajectory p)

let test_pacer_invalid () =
  invalid (fun () -> L.Pacer.create ~init_s:0.0 ~max_s:1.0 ());
  invalid (fun () -> L.Pacer.create ~init_s:Float.nan ~max_s:1.0 ());
  (* timeout_max < timeout_init *)
  invalid (fun () -> L.Pacer.create ~init_s:0.5 ~max_s:0.1 ())

(* --- Live config validation -------------------------------------------------- *)

let test_live_config_invalid () =
  let inputs = [ 1; 2; 3 ] in
  let crash = G.Crash.none ~n:3 in
  invalid (fun () -> L.Runner.default_config ~inputs:[] ~crash ());
  invalid (fun () ->
      L.Runner.default_config ~inputs ~crash:(G.Crash.none ~n:5) ());
  invalid (fun () ->
      L.Runner.default_config ~timeout_init_s:0.5 ~timeout_max_s:0.1 ~inputs ~crash ());
  invalid (fun () ->
      L.Runner.default_config ~timeout_init_s:Float.nan ~inputs ~crash ());
  invalid (fun () -> L.Runner.default_config ~round_budget:0 ~inputs ~crash ());
  invalid (fun () -> L.Runner.default_config ~wall_budget_s:0.0 ~inputs ~crash ());
  invalid (fun () ->
      L.Runner.default_config
        ~faults:{ Chaos.Netfault.none with Chaos.Netfault.drop = Float.nan }
        ~inputs ~crash ())

(* --- Differential: lockstep vs live ------------------------------------------ *)

module Floodset2 = Anon_baselines.Floodset.Make (struct
  let failures_bound = 2
end)

let algos :
    (string * (module G.Intf.ALGORITHM)) list =
  [
    ("es", (module C.Es_consensus));
    ("ess", (module C.Ess_consensus));
    ("floodset", (module Floodset2));
    ("es-unguarded", (module C.Es_consensus.No_written_old_guard));
  ]

(* Sampled configs: (label, inputs, crash events). Only [Silent] and
   [Broadcast_all] crashes — [Broadcast_subset] draws its receiver set
   from backend-specific RNG streams, so the two backends legitimately
   diverge there. *)
let diff_configs =
  [
    ("n4-clean", [ 3; 1; 4; 1 ], []);
    ( "n5-silent",
      [ 2; 7; 1; 8; 2 ],
      [ { G.Crash.pid = 1; round = 2; broadcast = G.Crash.Silent } ] );
    ( "n6-mixed",
      [ 5; 5; 5; 9; 2; 6 ],
      [
        { G.Crash.pid = 0; round = 1; broadcast = G.Crash.Broadcast_all };
        { G.Crash.pid = 3; round = 3; broadcast = G.Crash.Silent };
      ] );
  ]

let by_pid ds = List.sort (fun (p1, _, _) (p2, _, _) -> Int.compare p1 p2) ds

let pp_decisions ds =
  String.concat "; "
    (List.map (fun (p, r, v) -> Printf.sprintf "p%d@r%d=%d" p r v) (by_pid ds))

let assert_safe label = function
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: safety violated: %s" label
      (String.concat "; " (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs))

let run_differential (algo_name, (module A : G.Intf.ALGORITHM)) =
  let module LR = G.Runner.Make (A) in
  let module LiveR = L.Runner.Make (A) in
  List.iter
    (fun (cfg_label, inputs, crash_events) ->
      let label = Printf.sprintf "%s/%s" algo_name cfg_label in
      let n = List.length inputs in
      let crash = G.Crash.of_events ~n crash_events in
      let lockstep =
        LR.run
          (G.Runner.default_config ~seed:42 ~inputs ~crash (G.Adversary.sync ()))
      in
      let live =
        LiveR.run ~clock:L.Runner.Virtual
          (L.Runner.default_config ~timeout_init_s:0.08 ~timeout_max_s:0.4
             ~wall_budget_s:60.0 ~seed:42 ~inputs ~crash ())
      in
      assert_safe label live.L.Runner.safety;
      check_bool
        (label ^ ": live decided all correct")
        lockstep.G.Runner.all_correct_decided live.L.Runner.all_correct_decided;
      Alcotest.(check string)
        (label ^ ": decisions (pid, round, value) pinned to lockstep")
        (pp_decisions lockstep.G.Runner.decisions)
        (pp_decisions live.L.Runner.decisions))
    diff_configs

let differential_tests =
  List.map
    (fun (name, a) ->
      Alcotest.test_case name `Slow (fun () -> run_differential (name, a)))
    algos

(* --- Live robustness --------------------------------------------------------- *)

let faulty_spec = Chaos.Netfault.of_string "drop:0.15,dup:0.1,delay:0.3:0.01"

let test_live_faulty_decides () =
  let module LiveR = L.Runner.Make (C.Es_consensus) in
  let inputs = List.init 8 (fun i -> (i * 3 mod 5) + 1 ) in
  let crash =
    G.Crash.of_events ~n:8
      [ { G.Crash.pid = 2; round = 2; broadcast = G.Crash.Broadcast_subset } ]
  in
  let o =
    LiveR.run ~clock:L.Runner.Virtual
      (L.Runner.default_config ~faults:faulty_spec ~timeout_init_s:0.02
         ~timeout_max_s:0.5 ~wall_budget_s:60.0 ~seed:9 ~inputs ~crash ())
  in
  assert_safe "faulty" o.L.Runner.safety;
  check_bool "decided under drops+dups+delay" true o.L.Runner.all_correct_decided;
  check_bool "timeout curve recorded" true (o.L.Runner.timeout_curve <> [])

let test_live_undecided_budget () =
  (* A silent crasher makes everyone wait out a pacer timeout, and the
     wall budget is far below one: nobody can finish round 1, so the run
     must come back structured — undecided, safety still checked —
     rather than hang. *)
  let module LiveR = L.Runner.Make (C.Es_consensus) in
  let inputs = [ 1; 2; 3; 4 ] in
  let crash =
    G.Crash.of_events ~n:4
      [ { G.Crash.pid = 0; round = 1; broadcast = G.Crash.Silent } ]
  in
  let o =
    LiveR.run ~clock:L.Runner.Virtual
      (L.Runner.default_config ~timeout_init_s:5.0 ~timeout_max_s:10.0
         ~wall_budget_s:0.3 ~inputs ~crash ())
  in
  check_bool "undecided" false o.L.Runner.all_correct_decided;
  check_int "every correct pid reported undecided" 3
    (List.length o.L.Runner.undecided);
  assert_safe "undecided run" o.L.Runner.safety;
  check_bool "stopped on the wall budget" true
    (Array.exists
       (fun p -> p.L.Runner.stop = L.Runner.Wall_budget_exhausted)
       o.L.Runner.processes);
  check_bool "returned promptly" true (o.L.Runner.wall_s < 10.0)

let test_live_replay () =
  (* On the virtual clock a lossy run is a function of its config: run it
     twice, and the outcome and the recorded event stream repeat. *)
  let module LiveR = L.Runner.Make (C.Ess_consensus) in
  let n = 12 in
  let crash =
    G.Crash.of_events ~n
      [
        { G.Crash.pid = 3; round = 2; broadcast = G.Crash.Broadcast_subset };
        { G.Crash.pid = 7; round = 4; broadcast = G.Crash.Silent };
      ]
  in
  let config =
    L.Runner.default_config
      ~faults:
        (Chaos.Netfault.of_string
           "drop:0.1,dup:0.05,delay:0.2:0.005,sever:partition-pulse:3")
      ~seed:5 ~inputs:(List.init n (fun i -> (i mod 4) + 1)) ~crash ()
  in
  let run () =
    let events = ref [] in
    let sink = Anon_obs.Sink.handler (fun ev -> events := ev :: !events) in
    let recorder = Anon_obs.Recorder.create ~sink () in
    let o = LiveR.run ~recorder ~clock:L.Runner.Virtual config in
    ( ( o.L.Runner.decisions,
        o.L.Runner.processes,
        o.L.Runner.rounds_max,
        o.L.Runner.wall_s,
        o.L.Runner.transport,
        o.L.Runner.timeout_curve ),
      List.rev !events,
      o )
  in
  let first, events1, o = run () in
  let second, events2, _ = run () in
  assert_safe "replay" o.L.Runner.safety;
  check_bool "decided" true o.L.Runner.all_correct_decided;
  check_bool "wire faults injected" true
    (o.L.Runner.transport.L.Transport.retransmissions > 0
    && o.L.Runner.transport.L.Transport.duplicated > 0
    && o.L.Runner.transport.L.Transport.severed > 0);
  check_bool "same outcome" true (first = second);
  check_bool "same event stream" true (events1 = events2);
  check_int "one decide event per decision" (List.length o.L.Runner.decisions)
    (List.length
       (List.filter (function Anon_obs.Event.Decide _ -> true | _ -> false) events1))

let test_live_scale () =
  (* Zero faults at n = 128: every round fills before any deadline, so
     each process broadcasts rounds 1-6 exactly once and nobody waits. *)
  let module LiveR = L.Runner.Make (C.Es_consensus) in
  let n = 128 in
  let o =
    LiveR.run ~clock:L.Runner.Virtual
      (L.Runner.default_config ~inputs:(List.init n (fun i -> (i mod 4) + 1))
         ~crash:(G.Crash.none ~n) ())
  in
  check_bool "all decided" true o.L.Runner.all_correct_decided;
  check_bool "every decision at round 6" true
    (List.for_all (fun (_, r, _) -> r = 6) o.L.Runner.decisions);
  check_int "copies: 6 rounds x n x (n-1)" 97_536 o.L.Runner.transport.L.Transport.copies_sent;
  check_int "no timeouts" 0
    (Array.fold_left (fun acc p -> acc + p.L.Runner.timeouts_expired) 0 o.L.Runner.processes)

let () =
  Alcotest.run "live"
    [
      ( "netfault",
        [
          Alcotest.test_case "parse" `Quick test_netfault_parse;
          Alcotest.test_case "invalid specs rejected" `Quick test_netfault_invalid;
        ] );
      ( "wire",
        [
          Alcotest.test_case "faultless fifo" `Quick test_transport_faultless_fifo;
          Alcotest.test_case "lossy wire still delivers" `Quick
            test_transport_faulty_delivers_eventually;
        ] );
      ( "pacer",
        [
          Alcotest.test_case "backoff and decay" `Quick test_pacer_backoff;
          Alcotest.test_case "invalid timeouts rejected" `Quick test_pacer_invalid;
        ] );
      ("config", [ Alcotest.test_case "invalid configs rejected" `Quick test_live_config_invalid ]);
      ("differential", differential_tests);
      ( "robustness",
        [
          Alcotest.test_case "faulty wire decides + safe" `Slow test_live_faulty_decides;
          Alcotest.test_case "undecided budget, no hang" `Quick test_live_undecided_budget;
          Alcotest.test_case "lossy virtual run replays" `Quick test_live_replay;
          Alcotest.test_case "n=128 zero faults, no timeouts" `Quick test_live_scale;
        ] );
    ]
