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

(* --- Chan / Transport -------------------------------------------------------- *)

let test_chan_due_ordering () =
  let ch = L.Chan.create () in
  L.Chan.post ch ~due:3.0 "late";
  L.Chan.post ch ~due:1.0 "a";
  L.Chan.post ch ~due:1.0 "b";  (* same due: post order preserved *)
  check_int "pending" 3 (L.Chan.pending ch);
  Alcotest.(check (list string)) "ripe, due then seq order" [ "a"; "b" ]
    (L.Chan.drain_ready ch ~now:2.0);
  check_int "future item stays" 1 (L.Chan.pending ch);
  Alcotest.(check (list string)) "ripe later" [ "late" ] (L.Chan.drain_ready ch ~now:3.5);
  Alcotest.(check (list string)) "empty" [] (L.Chan.drain_ready ch ~now:9.0)

let test_transport_faultless_fifo () =
  let t = L.Transport.create ~n:3 ~faults:Chaos.Netfault.none ~seed:7 () in
  L.Transport.broadcast t ~src:0 ~round:1 "r1";
  L.Transport.broadcast t ~src:0 ~round:2 "r2";
  (* Give the due times (== send instants) a beat to pass. *)
  Thread.delay 0.002;
  (match L.Transport.drain t ~dst:1 with
  | [ (0, 1, "r1"); (0, 2, "r2") ] -> ()
  | other ->
    Alcotest.failf "faultless wire must be FIFO per link (got %d packets)"
      (List.length other));
  check_int "no self-delivery over the wire" 0 (L.Transport.pending t ~dst:0);
  let st = L.Transport.stats t in
  check_int "copies: 2 broadcasts x 2 peers" 4 st.L.Transport.copies_sent;
  check_int "no faults injected" 0
    (st.L.Transport.dropped + st.L.Transport.duplicated + st.L.Transport.delayed
   + st.L.Transport.severed)

let test_transport_faulty_delivers_eventually () =
  (* Reliability layer: even at drop 0.9 every copy has a bounded due
     time — messages are delayed, never lost. *)
  let faults = { Chaos.Netfault.none with Chaos.Netfault.drop = 0.9 } in
  let t = L.Transport.create ~n:2 ~faults ~seed:11 () in
  for r = 1 to 20 do
    L.Transport.broadcast t ~src:0 ~round:r (string_of_int r)
  done;
  let deadline = L.Transport.now_s () +. 10.0 in
  let got = ref 0 in
  while !got < 20 && L.Transport.now_s () < deadline do
    got := !got + List.length (L.Transport.drain t ~dst:1);
    Thread.delay 0.005
  done;
  check_int "all 20 delivered despite drop:0.9" 20 !got;
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
  invalid (fun () -> L.Pacer.create ~init_s:0.5 ~max_s:0.1 ());
  invalid (fun () -> L.Pacer.create ~growth:0.5 ~init_s:0.1 ~max_s:1.0 ());
  invalid (fun () -> L.Pacer.create ~decay:0.0 ~init_s:0.1 ~max_s:1.0 ())

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
  invalid (fun () -> L.Runner.default_config ~retries:(-1) ~inputs ~crash ());
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
        LiveR.run
          (L.Runner.default_config ~timeout_init_s:0.08 ~timeout_max_s:0.4
             ~retries:2 ~miss_grace:1 ~wall_budget_s:60.0 ~seed:42 ~inputs ~crash ())
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
    LiveR.run
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
    LiveR.run
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
          Alcotest.test_case "chan due ordering" `Quick test_chan_due_ordering;
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
        ] );
    ]
