(* Tests for Algorithm 3 (ESS consensus): unit compute semantics including
   the counter machinery, pseudo-leader dynamics, liveness tracking the
   source stabilization, ablation behaviour, and randomized safety. *)

open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module Ess = C.Ess_consensus
module R = G.Runner.Make (Ess)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let msg ?(proposed = []) ?(history = []) ?(counters = []) () =
  {
    Ess.m_proposed = Pvalue.Set.of_list proposed;
    m_history = History.of_list history;
    m_counters =
      List.fold_left
        (fun t (h, c) -> Counter_table.set t (History.of_list h) c)
        Counter_table.empty counters;
  }

let inbox current = { G.Intf.current; fresh = Lazy.from_val [] }

(* --- unit-level compute -------------------------------------------------------- *)

let test_initialize () =
  let st, m = Ess.initialize 7 in
  check_bool "initial leader (all-zero table)" true (Ess.is_leader st);
  Alcotest.(check (list int)) "history starts as ⟨VAL⟩" [ 7 ]
    (History.to_list (Ess.history st));
  check_bool "round-1 proposal empty" true (Pvalue.Set.is_empty m.Ess.m_proposed)

let test_compute_history_grows () =
  let st, _ = Ess.initialize 7 in
  let st, m, _ = Ess.compute st ~round:1 ~inbox:(inbox [ msg ~history:[ 7 ] () ]) in
  Alcotest.(check (list int)) "appended VAL" [ 7; 7 ] (History.to_list (Ess.history st));
  Alcotest.(check (list int)) "message carries the new history" [ 7; 7 ]
    (History.to_list m.Ess.m_history)

let test_compute_counter_bump () =
  let st, _ = Ess.initialize 7 in
  let other = msg ~history:[ 3 ] () in
  let own = msg ~history:[ 7 ] () in
  let st, _, _ = Ess.compute st ~round:1 ~inbox:(inbox [ own; other ]) in
  let c = Ess.counters st in
  check_int "own history bumped" 1 (Counter_table.get c (History.of_list [ 7 ]));
  check_int "other history bumped" 1 (Counter_table.get c (History.of_list [ 3 ]))

let test_compute_min_merge_drags_down () =
  let st, _ = Ess.initialize 7 in
  (* One message knows ⟨3⟩ with counter 5, the other doesn't know it at
     all: the min-merge drops it to 0 before the bump re-adds 1. *)
  let rich = msg ~history:[ 7 ] ~counters:[ ([ 3 ], 5) ] () in
  let poor = msg ~history:[ 3 ] () in
  let st, _, _ = Ess.compute st ~round:1 ~inbox:(inbox [ rich; poor ]) in
  check_int "min-merged then bumped" 1
    (Counter_table.get (Ess.counters st) (History.of_list [ 3 ]))

let test_compute_adopts_max_written () =
  let st, _ = Ess.initialize 1 in
  let m1 = msg ~proposed:[ Pvalue.v 5; Pvalue.v 9; Pvalue.bot ] ~history:[ 5 ] () in
  let st, _, _ = Ess.compute st ~round:1 ~inbox:(inbox [ m1 ]) in
  let st, _, _ = Ess.compute st ~round:2 ~inbox:(inbox [ m1 ]) in
  check_int "VAL := max(WRITTEN minus bot)" 9 (Ess.current_val st)

let test_non_leader_proposes_bot () =
  let st, _ = Ess.initialize 1 in
  (* Another history dominates the counter table and PROPOSED contains a
     conflicting value, so the process is neither leader nor converged. *)
  let dominant =
    msg ~proposed:[ Pvalue.v 9; Pvalue.v 5 ] ~history:[ 3; 3 ] ~counters:[ ([ 3 ], 8); ([ 3; 3 ], 9) ] ()
  in
  let st, m, _ = Ess.compute st ~round:1 ~inbox:(inbox [ dominant ]) in
  let st, m2, _ = Ess.compute st ~round:2 ~inbox:(inbox [ dominant; m ]) in
  check_bool "not a leader" false (Ess.is_leader st);
  check_bool "proposes bot" true
    (Pvalue.Set.equal m2.Ess.m_proposed (Pvalue.Set.singleton Pvalue.bot))

let test_decide_guard () =
  let st, _ = Ess.initialize 4 in
  let only4 = msg ~proposed:[ Pvalue.v 4 ] ~history:[ 4 ] () in
  let st, _, d1 = Ess.compute st ~round:1 ~inbox:(inbox [ only4 ]) in
  let _, _, d2 =
    Ess.compute st ~round:2
      ~inbox:(inbox [ msg ~proposed:[ Pvalue.v 4; Pvalue.bot ] ~history:[ 4; 4 ] () ])
  in
  check_bool "odd round no decision" true (d1 = None);
  Alcotest.(check (option int)) "decides despite bot in PROPOSED" (Some 4) d2

(* --- replay and liveness --------------------------------------------------------- *)

let ordered n = List.init n (fun i -> i + 1)

let test_sync_replay () =
  let config =
    G.Runner.default_config ~horizon:30 ~inputs:[ 3; 1; 4; 2 ]
      ~crash:(G.Crash.none ~n:4) (G.Adversary.sync ())
  in
  let out = R.run config in
  check_bool "all decided" true out.all_correct_decided;
  check_int "no violations" 0
    (List.length (G.Checker.check_consensus out.trace))

let test_blocking_tracks_stabilization () =
  List.iter
    (fun gst ->
      let config =
        G.Runner.default_config ~horizon:400 ~inputs:(ordered 6)
          ~crash:(G.Crash.none ~n:6)
          (G.Adversary.ess_blocking ~gst ())
      in
      let out = R.run config in
      match G.Runner.decision_round out with
      | None -> Alcotest.fail "must decide after stabilization"
      | Some r ->
        check_bool "after stabilization" true (r >= gst);
        check_bool "within stabilization + 8" true (r <= gst + 8))
    [ 6; 20; 50 ]

(* Line 8 and 9 work per round must not grow with the round: the entries
   the counter-table kernels visit per executed round at GST 2000 stay
   within 2x of GST 250. *)
let test_counter_work_flat () =
  let per_round gst =
    let config =
      G.Runner.default_config ~horizon:(gst + 100) ~inputs:(ordered 5)
        ~crash:(G.Crash.none ~n:5)
        (G.Adversary.ess_blocking ~gst ())
    in
    let before = Counter_table.slot_visits () in
    let out = R.run config in
    check_bool "decided" true out.all_correct_decided;
    float_of_int (Counter_table.slot_visits () - before) /. float_of_int out.rounds_executed
  in
  let early = per_round 250 and late = per_round 2000 in
  check_bool
    (Printf.sprintf "slots/round %.1f at GST 2000 <= 2 x %.1f at GST 250" late early)
    true
    (late <= 2. *. early)

let test_leader_set_stabilizes () =
  let n = 6 in
  let gst = 12 in
  let log : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let observe ~pid ~round st =
    if Ess.is_leader st then
      Hashtbl.replace log round
        (pid :: Option.value ~default:[] (Hashtbl.find_opt log round))
  in
  let config =
    G.Runner.default_config ~horizon:400 ~seed:5 ~inputs:(ordered n)
      ~crash:(G.Crash.none ~n)
      (G.Adversary.ess_blocking ~gst ())
  in
  let out = R.run ~observe config in
  check_bool "decided" true out.all_correct_decided;
  (* At the stabilization round the pinned source (p0) must be a leader. *)
  (match Hashtbl.find_opt log gst with
  | Some leaders -> check_bool "p0 leads at gst" true (List.mem 0 leaders)
  | None -> Alcotest.fail "no leader at gst");
  (* The final leader set is a strict subset of the processes. *)
  let last = out.rounds_executed - 1 in
  let final = Option.value ~default:[] (Hashtbl.find_opt log last) in
  check_bool "leaders are few" true (List.length final <= 2)

let test_validity_invariant () =
  (* VAL is always one of the inputs, at every process, every round. *)
  let ok = ref true in
  let inputs = [ 10; 20; 30; 40 ] in
  let observe ~pid:_ ~round:_ st =
    if not (List.mem (Ess.current_val st) inputs) then ok := false
  in
  let config =
    G.Runner.default_config ~horizon:100 ~seed:3 ~inputs ~crash:(G.Crash.none ~n:4)
      (G.Adversary.ess ~gst:10 ~noise:0.3 ())
  in
  ignore (R.run ~observe config);
  check_bool "VAL always an input" true !ok

(* --- ablations -------------------------------------------------------------------- *)

module Leaders_only = Ess.Ablation (struct
  let merge = `Min
  let silent_non_leaders = false
  let converged_disjunct = false
end)

let test_leaders_only_stalls () =
  let gst = 10 in
  let run (module A : G.Intf.ALGORITHM) =
    let module Run = G.Runner.Make (A) in
    let config =
      G.Runner.default_config ~horizon:600 ~seed:11 ~inputs:(ordered 6)
        ~crash:(G.Crash.none ~n:6)
        (G.Adversary.ess_blocking ~gst ())
    in
    Run.run config
  in
  let control = run (module Ess) in
  let ablated = run (module Leaders_only) in
  match G.Runner.decision_round control, G.Runner.decision_round ablated with
  | Some c, Some a ->
    check_bool "ablated at least 3x slower" true (a >= 3 * c);
    check_int "ablated still safe" 0
      (List.length
         (G.Checker.check_consensus ~expect_termination:false ablated.trace))
  | _, None ->
    (* Not deciding at all within the horizon is also the predicted
       failure. *)
    check_bool "control decided" true (control.all_correct_decided)
  | None, _ -> Alcotest.fail "control must decide"

let prop_ess_safety =
  QCheck.Test.make ~name:"ESS safety + admissibility over random adversarial runs"
    ~count:100 QCheck.small_int
    (fun seed ->
      let rng = Rng.make seed in
      let n = 2 + Rng.int rng 8 in
      let inputs = Rng.shuffle rng (List.init n (fun i -> i + 1)) in
      let failures = Rng.int rng (n + 1) in
      let crash = G.Crash.random ~n ~failures ~max_round:40 (Rng.split rng) in
      let adversary =
        match Rng.int rng 4 with
        | 0 -> G.Adversary.ess ~gst:(1 + Rng.int rng 40) ~noise:(Rng.float rng 0.5) ()
        | 1 ->
          G.Adversary.ess ~gst:(1 + Rng.int rng 40) ~noise:(Rng.float rng 0.3)
            ~max_delay:(1 + Rng.int rng 40) ()
        | 2 -> G.Adversary.ess_blocking ~gst:(1 + Rng.int rng 60) ()
        | _ -> G.Adversary.sync ()
      in
      let config = G.Runner.default_config ~horizon:250 ~seed ~inputs ~crash adversary in
      let out = R.run config in
      G.Checker.check_consensus ~expect_termination:false out.trace = []
      && G.Checker.check_env out.trace = [])

let test_ess_terminates () =
  List.iter
    (fun seed ->
      let rng = Rng.make seed in
      let n = 3 + Rng.int rng 6 in
      let inputs = Rng.shuffle rng (List.init n (fun i -> i + 1)) in
      let crash =
        G.Crash.random ~n ~failures:(Rng.int rng n) ~max_round:20 (Rng.split rng)
      in
      let config =
        G.Runner.default_config ~horizon:400 ~seed ~inputs ~crash
          (G.Adversary.ess ~gst:(1 + Rng.int rng 30) ~noise:0.2 ())
      in
      let out = R.run config in
      check_bool "terminates under ESS" true out.all_correct_decided)
    (List.init 40 (fun i -> 700 + i))

(* --- state invariants (observed every round of adversarial runs) ------------ *)

let observe_invariants ~seed =
  let violations = ref [] in
  let note fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let rng = Rng.make seed in
  let n = 3 + Rng.int rng 6 in
  let inputs = Rng.shuffle rng (List.init n (fun i -> i + 1)) in
  let observe ~pid ~round st =
    let value = Ess.current_val st in
    let history = Ess.history st in
    let counters = Ess.counters st in
    (* VAL is always an input (validity). *)
    if not (List.mem value inputs) then note "p%d r%d: VAL %d not an input" pid round value;
    (* HISTORY has the initial value plus one appended entry per round —
       except at the deciding compute, which halts before the append. *)
    if
      round >= 1
      && History.length history <> round + 1
      && History.length history <> round
    then
      note "p%d r%d: history length %d (expected %d)" pid round
        (History.length history) (round + 1);
    (* The history is made of proposal values only. *)
    if not (List.for_all (fun v -> List.mem v inputs) (History.to_list history)) then
      note "p%d r%d: history contains a non-input" pid round;
    (* A counter can never exceed the number of rounds elapsed + 1: it
       grows by at most one per round (Lemma 5's argument). *)
    List.iter
      (fun (h, c) ->
        if c > round + 1 then
          note "p%d r%d: counter %d too high for %s" pid round c
            (Format.asprintf "%a" History.pp h))
      (Counter_table.bindings counters);
    (* PROPOSED carries at most the proposal values and bot. *)
    Pvalue.Set.iter
      (fun pv ->
        match Pvalue.to_value pv with
        | None -> ()
        | Some v ->
          if not (List.mem v inputs) then note "p%d r%d: proposes non-input %d" pid round v)
      (Ess.proposed st)
  in
  let crash = G.Crash.random ~n ~failures:(Rng.int rng n) ~max_round:20 (Rng.split rng) in
  let config =
    G.Runner.default_config ~horizon:200 ~seed ~inputs ~crash
      (G.Adversary.ess ~gst:(1 + Rng.int rng 20) ~noise:0.3 ())
  in
  ignore (R.run ~observe config);
  List.rev !violations

let test_state_invariants () =
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "invariants (seed %d)" seed)
        [] (observe_invariants ~seed))
    (List.init 25 (fun i -> 840 + i))

(* --- model-checker keys ----------------------------------------------------------- *)

(* Keys print structural digests: a run's keys are the same in a fresh
   interner scope whose ids are shifted by unrelated histories. *)
let test_keys_across_scopes () =
  let keys () =
    let acc = ref [] in
    let observe ~pid ~round st = acc := (round, pid, Ess.state_key st) :: !acc in
    let config =
      G.Runner.default_config ~horizon:40 ~seed:5 ~inputs:[ 3; 1; 4; 2 ]
        ~crash:(G.Crash.none ~n:4) (G.Adversary.ess ~gst:12 ~noise:0.3 ())
    in
    let out = R.run ~observe config in
    check_bool "decided" true out.all_correct_decided;
    List.rev !acc
  in
  let first = History.with_fresh_interner keys in
  let shifted =
    History.with_fresh_interner (fun () ->
        List.iter (fun v -> ignore (History.of_list [ v; v; 9 ] : History.t)) [ 4; 3; 2; 1 ];
        keys ())
  in
  Alcotest.(check (list (triple int int string))) "same state keys" first shifted

(* Two tables with one history each, differing only in its count, and
   the same content built in another scope and order. *)
let test_keys_tell_counts_apart () =
  let m counters = Ess.msg_key (msg ~proposed:[ Pvalue.v 1 ] ~history:[ 1; 2 ] ~counters ()) in
  let a = m [ ([ 1 ], 1); ([ 1; 2 ], 2) ] and b = m [ ([ 1 ], 1); ([ 1; 2 ], 1) ] in
  check_bool "counts differ, keys differ" true (a <> b);
  let a' =
    History.with_fresh_interner (fun () ->
        ignore (History.of_list [ 1; 2 ] : History.t);
        m [ ([ 1; 2 ], 2); ([ 1 ], 1) ])
  in
  Alcotest.(check string) "same content, same key" a a'

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "ess-consensus"
    [
      ( "compute",
        [
          Alcotest.test_case "initialize" `Quick test_initialize;
          Alcotest.test_case "history grows" `Quick test_compute_history_grows;
          Alcotest.test_case "counter bump" `Quick test_compute_counter_bump;
          Alcotest.test_case "min-merge drags down" `Quick test_compute_min_merge_drags_down;
          Alcotest.test_case "adopt max written" `Quick test_compute_adopts_max_written;
          Alcotest.test_case "non-leader proposes bot" `Quick test_non_leader_proposes_bot;
          Alcotest.test_case "decide guard tolerates bot" `Quick test_decide_guard;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "sync replay" `Quick test_sync_replay;
          Alcotest.test_case "tracks stabilization" `Quick test_blocking_tracks_stabilization;
          Alcotest.test_case "counter work per round is flat" `Quick test_counter_work_flat;
          Alcotest.test_case "leader set stabilizes" `Quick test_leader_set_stabilizes;
          Alcotest.test_case "terminates under ESS" `Quick test_ess_terminates;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "validity of VAL" `Quick test_validity_invariant;
          Alcotest.test_case "state invariants" `Quick test_state_invariants;
          qc prop_ess_safety;
        ] );
      ( "ablations", [ Alcotest.test_case "leaders-only stalls" `Quick test_leaders_only_stalls ] );
      ( "keys",
        [
          Alcotest.test_case "equal across interner scopes" `Quick test_keys_across_scopes;
          Alcotest.test_case "tables differing in a count" `Quick test_keys_tell_counts_apart;
        ] );
    ]
