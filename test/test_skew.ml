(* Tests for the unsynchronized-round runner: lockstep equivalence under
   uniform pace, relay semantics (footnote 2), crash handling, and safety
   under randomized skew. *)

open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module Skew = G.Skew_runner.Make (C.Es_consensus)
module Skew_ess = G.Skew_runner.Make (C.Ess_consensus)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let base ?(n = 4) ?(pace = G.Skew_runner.fixed_pace 1)
    ?(delay = G.Skew_runner.fixed_delay 1) ?(crash = None) ?(seed = 3) () =
  let crash = Option.value ~default:(G.Crash.none ~n) crash in
  G.Skew_runner.default_config ~seed ~pace ~delay
    ~inputs:(List.init n (fun i -> i + 1))
    ~crash ()

let test_uniform_pace_is_synchronous () =
  (* pace 1 + delay 1 = every message is in the receiver's round set when
     it computes: behaviour matches the lockstep runner under sync. *)
  let out = Skew.run (base ()) in
  check_bool "all decided" true out.all_correct_decided;
  List.iter
    (fun (_, round, v) ->
      check_int "decides max" 4 v;
      check_int "same round as lockstep sync" 6 round)
    out.decisions;
  check_int "no env violations vs Sync" 0
    (List.length
       (G.Checker.check_env { out.trace with G.Trace.env = G.Env.Sync }))

let test_deliver_events_report_timeliness () =
  (* pace 1 + delay 1: every relayed set reaches its receiver before it
     computes the round, so each deliver event (one per relayed set) is
     timely (arrival = round), and their (relayer, receiver, round)
     triples are the trace's timely links. *)
  let events = ref [] in
  let sink = Anon_obs.Sink.handler (fun ev -> events := ev :: !events) in
  let out = Skew.run ~recorder:(Anon_obs.Recorder.create ~sink ()) (base ()) in
  let delivered =
    List.filter_map
      (function
        | Anon_obs.Event.Deliver { sender; receiver; round; arrival } ->
          check_int "timely: arrival = round" round arrival;
          Some (sender, receiver, round)
        | _ -> None)
      !events
  in
  let links =
    List.concat_map
      (fun (info : G.Trace.round_info) ->
        List.concat_map
          (fun (s, receivers) ->
            List.map (fun q -> (s, q, info.round)) (Pidset.to_list receivers))
          info.timely)
      out.trace.rounds
  in
  check_int "one event per relayed set" 72 (List.length delivered);
  Alcotest.(check (list (triple int int int)))
    "deliver events = timely links" (List.sort compare links) (List.sort compare delivered)

(* ES that records the most copies one compute saw twice: entries of
   [fresh] with the same sent round and equal messages. *)
module Dup_probe = struct
  include C.Es_consensus

  let dups = ref 0

  let compute st ~round ~(inbox : msg G.Intf.inbox) =
    let fresh =
      List.sort
        (fun (s1, m1) (s2, m2) ->
          match Int.compare s1 s2 with 0 -> msg_compare m1 m2 | c -> c)
        (Lazy.force inbox.fresh)
    in
    let rec count acc = function
      | (s1, m1) :: ((s2, m2) :: _ as tl) ->
        count (if s1 = s2 && msg_compare m1 m2 = 0 then acc + 1 else acc) tl
      | _ -> acc
    in
    dups := max !dups (count 0 fresh);
    compute st ~round ~inbox
end

module Skew_dups = G.Skew_runner.Make (Dup_probe)

let test_relayed_copies_merge () =
  (* Uneven paces and delays: most relayed sets overlap what their
     receiver holds. A receiver files a relayed message it holds for the
     round only once, so a compute reads at most one copy twice: its own
     message, filed without a look at what arrived early. *)
  Dup_probe.dups := 0;
  let relays = ref 0 in
  let sink =
    Anon_obs.Sink.handler (function Anon_obs.Event.Deliver _ -> incr relays | _ -> ())
  in
  let out =
    Skew_dups.run ~recorder:(Anon_obs.Recorder.create ~sink ())
      (base ~n:6 ~pace:(G.Skew_runner.uniform_pace ~max:3)
         ~delay:(G.Skew_runner.uniform_delay ~max:3) ())
  in
  check_bool "decided" true out.all_correct_decided;
  check_bool "relays delivered" true (!relays > 0);
  check_bool "at most the own message read twice" true (!Dup_probe.dups <= 1);
  check_int "safety" 0
    (List.length (G.Checker.check_consensus ~expect_termination:false out.trace))

let test_fast_process_runs_ahead () =
  (* p0 fires every tick, everyone else every 5 ticks: p0's round counter
     races ahead; everything stays safe. *)
  let pace ~pid ~round:_ _rng = if pid = 0 then 1 else 5 in
  let out = Skew.run (base ~pace ~delay:(G.Skew_runner.fixed_delay 2) ()) in
  check_int "safety" 0
    (List.length (G.Checker.check_consensus ~expect_termination:false out.trace));
  check_bool "everyone decided" true out.all_correct_decided

let test_relay_provides_timeliness () =
  (* Three processes. Direct links p0->p2 are very slow, but p0->p1 and
     p1->p2 are fast and p1 fires in between: p2 must still receive p0's
     round-k content timely, through p1's relayed round set. *)
  let delay ~sender ~receiver ~round:_ _rng =
    match sender, receiver with
    | 0, 2 -> 50 (* direct link effectively dead *)
    | _, _ -> 1
  in
  let pace ~pid ~round:_ _rng = match pid with 1 -> 2 | _ -> 4 in
  let config =
    G.Skew_runner.default_config ~seed:5 ~pace ~delay ~horizon_ticks:400
      ~inputs:[ 1; 2; 3 ] ~crash:(G.Crash.none ~n:3) ()
  in
  let out = Skew.run config in
  (* Look for any round where p0 was timely to p2 despite the dead direct
     link — only relaying can achieve that. *)
  let relayed =
    List.exists
      (fun (info : G.Trace.round_info) ->
        Pidset.mem 2 (G.Trace.timely_to info 0) && info.round > 1)
      out.trace.rounds
  in
  check_bool "p2 got p0's content through the relay" true relayed;
  check_int "safety" 0
    (List.length (G.Checker.check_consensus ~expect_termination:false out.trace))

let test_identical_messages_merge_across_senders () =
  (* Both p0 and p1 propose 7: their messages are identical, and once one
     copy reaches p2, BOTH count as received (footnote 2). *)
  let delay ~sender ~receiver ~round:_ _rng =
    if sender = 1 && receiver = 2 then 60 else 1
  in
  let config =
    G.Skew_runner.default_config ~seed:7 ~delay ~horizon_ticks:400
      ~inputs:[ 7; 7; 3 ] ~crash:(G.Crash.none ~n:3) ()
  in
  let out = Skew.run config in
  let p1_timely_to_p2 =
    List.exists
      (fun (info : G.Trace.round_info) -> Pidset.mem 2 (G.Trace.timely_to info 1))
      out.trace.rounds
  in
  check_bool "p1's content reaches p2 via p0's identical message" true p1_timely_to_p2

let test_crash_at_own_round () =
  let crash =
    G.Crash.of_events ~n:4
      [ { G.Crash.pid = 1; round = 3; broadcast = G.Crash.Silent } ]
  in
  let out = Skew.run (base ~crash:(Some crash) ()) in
  check_int "p1 stopped at its round 3" 3 out.rounds_completed.(1);
  check_bool "correct processes decide" true out.all_correct_decided;
  check_int "safety" 0 (List.length (G.Checker.check_consensus out.trace))

let test_horizon_bound () =
  let config =
    G.Skew_runner.default_config ~horizon_ticks:50 ~seed:1
      ~pace:(G.Skew_runner.fixed_pace 20)
      ~delay:(G.Skew_runner.fixed_delay 30)
      ~inputs:[ 1; 2 ] ~crash:(G.Crash.none ~n:2) ()
  in
  let out = Skew.run config in
  check_bool "bounded" true (out.ticks <= 50);
  check_bool "nobody decided in 2 slow rounds" true (out.decisions = [])

let test_no_source_obligation_splits_agreement () =
  (* The skew runner makes no environment promise. Two processes racing
     ahead on slow links each see only their own value written and decide
     it — a split. This is exactly why the paper's MS assumption (a
     per-round source) is necessary even for safety, and what the A2
     experiment examines in the lockstep model. *)
  let config =
    G.Skew_runner.default_config ~horizon_ticks:200 ~seed:1
      ~delay:(G.Skew_runner.fixed_delay 30)
      ~inputs:[ 1; 2 ] ~crash:(G.Crash.none ~n:2) ()
  in
  let out = Skew.run config in
  let agreement =
    List.filter
      (function G.Checker.Agreement_violation _ -> true | _ -> false)
      (G.Checker.check_consensus ~expect_termination:false out.trace)
  in
  check_bool "split decision without a source" true (agreement <> []);
  (* Validity still holds unconditionally. *)
  check_int "validity" 0
    (List.length
       (List.filter
          (function G.Checker.Validity_violation _ -> true | _ -> false)
          (G.Checker.check_consensus ~expect_termination:false out.trace)))

let prop_skew_validity =
  (* Agreement is NOT guaranteed without environment obligations (see the
     split test above); validity and single-decision integrity are. *)
  QCheck.Test.make ~name:"ES/ESS validity under random skew and crashes" ~count:60
    QCheck.small_int
    (fun seed ->
      let rng = Rng.make seed in
      let n = 2 + Rng.int rng 5 in
      let crash = G.Crash.random ~n ~failures:(Rng.int rng n) ~max_round:20 (Rng.split rng) in
      let config =
        G.Skew_runner.default_config ~seed ~horizon_ticks:1_000 ~max_rounds:120
          ~pace:(G.Skew_runner.uniform_pace ~max:4)
          ~delay:(G.Skew_runner.uniform_delay ~max:6)
          ~inputs:(Rng.shuffle rng (List.init n (fun i -> i + 1)))
          ~crash ()
      in
      let validity_ok (out : G.Skew_runner.outcome) =
        List.for_all
          (function
            | G.Checker.Validity_violation _ -> false
            | _ -> true)
          (G.Checker.check_consensus ~expect_termination:false out.trace)
        && List.for_all
             (fun (pid, _, _) ->
               List.length (List.filter (fun (p, _, _) -> p = pid) out.decisions) = 1)
             out.decisions
      in
      validity_ok (Skew.run config) && validity_ok (Skew_ess.run config))

(* --- Config validation ------------------------------------------------------ *)

let invalid where what =
  G.Config_error.Invalid_config { G.Config_error.where; what }

let test_config_validation () =
  let raises msg exn f = Alcotest.check_raises msg exn (fun () -> ignore (f ())) in
  raises "empty inputs"
    (invalid "Skew_runner.default_config" "inputs must be non-empty") (fun () ->
      G.Skew_runner.default_config ~inputs:[] ~crash:(G.Crash.none ~n:0) ());
  raises "bad horizon_ticks"
    (invalid "Skew_runner.default_config" "horizon_ticks must be >= 1 (got 0)")
    (fun () ->
      G.Skew_runner.default_config ~horizon_ticks:0
        ~inputs:[ 1; 2 ] ~crash:(G.Crash.none ~n:2) ());
  raises "bad max_rounds"
    (invalid "Skew_runner.default_config" "max_rounds must be >= 1 (got -1)")
    (fun () ->
      G.Skew_runner.default_config ~max_rounds:(-1)
        ~inputs:[ 1; 2 ] ~crash:(G.Crash.none ~n:2) ());
  raises "crash size mismatch"
    (invalid "Skew_runner.default_config"
       "inputs/crash size mismatch (3 inputs, crash schedule for 2)") (fun () ->
      G.Skew_runner.default_config ~inputs:[ 1; 2; 3 ] ~crash:(G.Crash.none ~n:2) ());
  (* [run] re-validates, so a config mutated after construction is rejected. *)
  raises "run re-validates"
    (invalid "Skew_runner.run" "max_rounds must be >= 1 (got 0)") (fun () ->
      Skew.run { (base ()) with G.Skew_runner.max_rounds = 0 })

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "skew-runner"
    [
      ( "skew",
        [
          Alcotest.test_case "uniform pace = synchronous" `Quick
            test_uniform_pace_is_synchronous;
          Alcotest.test_case "deliver events report timeliness" `Quick
            test_deliver_events_report_timeliness;
          Alcotest.test_case "relayed copies merge" `Quick test_relayed_copies_merge;
          Alcotest.test_case "fast process runs ahead" `Quick test_fast_process_runs_ahead;
          Alcotest.test_case "relay provides timeliness" `Quick
            test_relay_provides_timeliness;
          Alcotest.test_case "identical messages merge" `Quick
            test_identical_messages_merge_across_senders;
          Alcotest.test_case "crash at own round" `Quick test_crash_at_own_round;
          Alcotest.test_case "horizon bound" `Quick test_horizon_bound;
          Alcotest.test_case "no source => split (why MS matters)" `Quick
            test_no_source_obligation_splits_agreement;
          qc prop_skew_validity;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
    ]
