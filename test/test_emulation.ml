(* Tests for the MS emulation (Alg. 5 / Thm. 4). *)

module G = Anon_giraf
module C = Anon_consensus
module Emu = C.Ms_emulation.Make (C.Es_consensus)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Ms_emulation ---------------------------------------------------------------- *)

let emu_config ?(n = 4) ?(seed = 11) ?(latency = C.Ms_emulation.uniform_latency ~max:4)
    ?(horizon_rounds = 60) ?crash () =
  let crash = Option.value ~default:(G.Crash.none ~n) crash in
  C.Ms_emulation.default_config
    ~inputs:(List.init n (fun i -> i + 1))
    ~crash ~horizon_rounds ~seed ~latency ()

let test_emulation_satisfies_ms () =
  List.iter
    (fun seed ->
      let out = Emu.run (emu_config ~seed ()) in
      check_int
        (Printf.sprintf "MS property (seed %d)" seed)
        0
        (List.length (G.Checker.check_env out.trace));
      check_int "hosted safety" 0
        (List.length (G.Checker.check_consensus ~expect_termination:false out.trace)))
    (List.init 20 (fun i -> 100 + i))

let test_emulation_rounds_progress () =
  let out = Emu.run (emu_config ~latency:(C.Ms_emulation.fixed_latency 1) ()) in
  Array.iter (fun r -> check_bool "made progress" true (r >= 1)) out.rounds_completed;
  check_bool "hosted algorithm decided under fast adds" true out.all_correct_decided

let test_emulation_with_crash () =
  let n = 4 in
  let crash =
    G.Crash.of_events ~n [ { G.Crash.pid = 2; round = 5; broadcast = G.Crash.Silent } ]
  in
  let out = Emu.run (emu_config ~n ~crash ()) in
  check_bool "crashed process stops" true (out.rounds_completed.(2) <= 5);
  check_int "MS property still holds" 0 (List.length (G.Checker.check_env out.trace));
  check_int "safety still holds" 0
    (List.length (G.Checker.check_consensus ~expect_termination:false out.trace))

let test_emulation_alternating_latency () =
  (* The 2-process alternating schedule: the source alternates by parity.
     Anonymity makes early identical messages merge, so the hosted
     algorithm may decide — what Thm. 4 promises (and we check) is only
     the MS property of the emulated rounds. *)
  let config =
    C.Ms_emulation.default_config ~inputs:[ 0; 1 ] ~crash:(G.Crash.none ~n:2)
      ~horizon_rounds:100 ~seed:5
      ~latency:(C.Ms_emulation.alternating_latency ~fast:1 ~slow:4)
      ()
  in
  let out = Emu.run config in
  check_int "MS property" 0 (List.length (G.Checker.check_env out.trace));
  check_int "hosted safety" 0
    (List.length (G.Checker.check_consensus ~expect_termination:false out.trace))

let test_emulation_trace_shape () =
  let out = Emu.run (emu_config ()) in
  let rounds = out.trace.rounds in
  check_bool "rounds recorded" true (rounds <> []);
  List.iteri
    (fun i (info : G.Trace.round_info) -> check_int "consecutive rounds" (i + 1) info.round)
    rounds

let test_emulation_idle_stop () =
  (* `anonc emulate --rounds 3`: every process stops at the round horizon
     undecided, and the run ends one step past the last add completing. *)
  let n = 5 in
  let config =
    C.Ms_emulation.default_config
      ~inputs:(Anon_harness.Runs.distinct_inputs ~n (Anon_kernel.Rng.make 42))
      ~crash:(G.Crash.none ~n) ~horizon_rounds:3 ~seed:42 ()
  in
  let out = Emu.run config in
  check_bool "undecided" false out.all_correct_decided;
  Alcotest.(check (array int)) "every process at the horizon" [| 3; 3; 3; 3; 3 |]
    out.rounds_completed;
  check_int "steps" 9 out.steps

(* A hosted algorithm whose round message is its proposal: processes that
   propose equal values send equal messages in every round. *)
module Echo = struct
  let name = "echo"

  type state = Anon_kernel.Value.t
  type msg = Anon_kernel.Value.t

  let msg_compare = Int.compare
  let msg_size _ = 1
  let leader _ = None
  let initialize v = (v, v)
  let compute v ~round:_ ~inbox:_ = (v, v, None)
end

module Emu_echo = C.Ms_emulation.Make (Echo)

(* Identical messages merge into one weak-set element (footnote 2): a
   receiver that holds one copy holds both senders' messages. So p0 and
   p1, which propose 7, reach the same receivers in every round, and each
   is timely to the other whenever the other computed the round. *)
let test_emulation_equal_messages () =
  let shared = ref 0 in
  List.iter
    (fun seed ->
      let config =
        C.Ms_emulation.default_config ~inputs:[ 7; 7; 3; 5; 9 ]
          ~crash:(G.Crash.none ~n:5) ~horizon_rounds:30 ~seed
          ~latency:(C.Ms_emulation.uniform_latency ~max:4) ()
      in
      let out = Emu_echo.run config in
      check_int "MS property" 0 (List.length (G.Checker.check_env out.trace));
      List.iter
        (fun (info : G.Trace.round_info) ->
          if List.mem 0 info.senders && List.mem 1 info.senders then begin
            let others s =
              List.filter (fun q -> q > 1) (G.Trace.timely_to info s)
            in
            let label what = Printf.sprintf "seed %d round %d: %s" seed info.round what in
            Alcotest.(check (list int)) (label "same receivers") (others 0) (others 1);
            if others 0 <> [] then incr shared;
            check_bool (label "p1 got p0's message") (List.mem 1 info.obligated)
              (List.mem 1 (G.Trace.timely_to info 0));
            check_bool (label "p0 got p1's message") (List.mem 0 info.obligated)
              (List.mem 0 (G.Trace.timely_to info 1))
          end)
        out.trace.rounds)
    (List.init 12 (fun i -> 200 + i));
  check_bool "some round reached a third process" true (!shared > 0)

let () =
  Alcotest.run "ms-emulation"
    [
      ( "emulation",
        [
          Alcotest.test_case "satisfies MS (Thm. 4)" `Quick test_emulation_satisfies_ms;
          Alcotest.test_case "rounds progress" `Quick test_emulation_rounds_progress;
          Alcotest.test_case "with crash" `Quick test_emulation_with_crash;
          Alcotest.test_case "alternating latency" `Quick test_emulation_alternating_latency;
          Alcotest.test_case "trace shape" `Quick test_emulation_trace_shape;
          Alcotest.test_case "idle stop" `Quick test_emulation_idle_stop;
          Alcotest.test_case "equal messages, equal receivers" `Quick
            test_emulation_equal_messages;
        ] );
    ]
