module G = Anon_giraf
module C = Anon_consensus

(* --- A1: the non-leader proposal machinery -------------------------------- *)

module Ess_silent = C.Ess_consensus.Ablation (struct
  let merge = `Min
  let silent_non_leaders = true
  let converged_disjunct = true
end)

module Ess_leaders_only = C.Ess_consensus.Ablation (struct
  let merge = `Min
  let silent_non_leaders = false
  let converged_disjunct = false
end)

let a1 () =
  let n = 8 in
  let batch (module A : G.Intf.ALGORITHM) gst =
    let module B = Runs.Of (A) in
    B.batch ~horizon:600
      ~inputs:(Exp_consensus.ordered_inputs ~n)
      ~crash:(fun _ -> G.Crash.none ~n)
      ~adversary:(fun _ -> G.Adversary.ess_blocking ~gst ())
      ~seeds:(Runs.seeds 10) ()
  in
  let row name (module A : G.Intf.ALGORITHM) gst =
    let b = batch (module A) gst in
    [
      name;
      Table.cell_int gst;
      Printf.sprintf "%d/%d" b.decided b.runs;
      Table.cell_int (Runs.safety_violations b);
      Table.cell_opt (Table.cell_float ~decimals:1) (Runs.mean_decision b);
    ]
  in
  Table.make ~id:"A1" ~title:"Ablation: the non-leader proposal machinery of Alg. 3"
    ~claim:"§4.1 — non-leaders must keep relaying; the converged clause (line 15) lets followers re-propose the agreed value"
    ~expectation:"silent ≡ paper in lockstep runs (the ⊥ device targets unsynchronized rounds); leaders-only stalls each decision until the next source out-counts the halted leader's frozen history"
    ~headers:[ "algorithm"; "gst"; "decided"; "safety-viol"; "mean-round" ]
    ~rows:
      [
        row "ESS (paper)" (module C.Ess_consensus) 10;
        row "ESS silent (A1a)" (module Ess_silent) 10;
        row "ESS leaders-only (A1b)" (module Ess_leaders_only) 10;
        row "ESS (paper)" (module C.Ess_consensus) 40;
        row "ESS silent (A1a)" (module Ess_silent) 40;
        row "ESS leaders-only (A1b)" (module Ess_leaders_only) 40;
      ]

(* --- A2: environment-definition sensitivity ------------------------------ *)

(* §2.3 literally says a source's timely link reaches every CORRECT
   process; the Lemma 1 proof uses the stronger "every process that enters
   the round". Under the literal reading this schedule is admissible:
   p0 is faulty (crashes at round 12), proposes 9, and receives nothing
   timely — all sources only serve the correct {p1, p2}, who propose 1.
   p0 then sees only its own value written twice in a row and decides 9 at
   round 6, while p1/p2 decide 1: uniform agreement breaks for the paper's
   own algorithm. Under the strengthened obligation (our default model,
   enforced by the trace checker) the schedule is flagged inadmissible. *)
let a2_adversary () =
  let plan (ctx : G.Adversary.ctx) _rng =
    let source =
      match List.filter (fun p -> List.mem p ctx.correct) ctx.obligated with
      | [] -> None
      | s :: _ -> Some s
    in
    let deliveries =
      List.map
        (fun p ->
          let plan_receiver q =
            let timely = Some p = source && List.mem q ctx.correct in
            { G.Adversary.receiver = q;
              arrival = (if timely then ctx.round else ctx.round + 1) }
          in
          (p, List.map plan_receiver (List.filter (fun q -> q <> p) ctx.obligated)))
        ctx.obligated
    in
    G.Adversary.of_links ~source deliveries
  in
  G.Adversary.scripted ~name:"a2-literal-ms" ~env:(G.Env.Es { gst = 1_000_000 }) plan

let a2 () =
  let run (module A : G.Intf.ALGORITHM) name =
    let module R = G.Runner.Make (A) in
    let crash =
      G.Crash.of_events ~n:3
        [ { G.Crash.pid = 0; round = 12; broadcast = G.Crash.Silent } ]
    in
    let config =
      G.Runner.default_config ~horizon:60 ~seed:1 ~inputs:[ 9; 1; 1 ] ~crash
        (a2_adversary ())
    in
    let out = R.run config in
    let agreement =
      List.filter
        (function G.Checker.Agreement_violation _ -> true | _ -> false)
        (G.Checker.check_consensus ~expect_termination:false out.trace)
    in
    let env = G.Checker.check_env out.trace in
    let decisions =
      String.concat " "
        (List.map (fun (p, r, v) -> Printf.sprintf "p%d:%d@r%d" p v r) out.decisions)
    in
    [
      name;
      decisions;
      Table.cell_int (List.length agreement);
      Table.cell_int (List.length env);
    ]
  in
  Table.make ~id:"A2"
    ~title:"Model sensitivity: sources timely to correct-only vs to all alive"
    ~claim:"Lemma 1's proof needs sources to reach every process entering the round; §2.3's literal 'every correct process' is too weak for uniform agreement"
    ~expectation:"a faulty isolated proposer decides its own value (agreement violation); the checker flags the schedule as inadmissible under the strengthened model"
    ~headers:[ "algorithm"; "decisions"; "agreement-viol"; "env-viol (strengthened model)" ]
    ~rows:
      [
        run (module C.Es_consensus) "ES (paper), literal-§2.3 schedule";
        run (module C.Es_consensus.No_written_old_guard) "ES no-guard, same schedule";
      ]

(* --- A3: max-merge of counter tables ------------------------------------- *)

module Ess_max = C.Ess_consensus.Ablation (struct
  let merge = `Max
  let silent_non_leaders = false
  let converged_disjunct = true
end)

module Min_leaders_only = Ess_leaders_only

module Max_leaders_only = C.Ess_consensus.Ablation (struct
  let merge = `Max
  let silent_non_leaders = false
  let converged_disjunct = false
end)

(* One instrumented blocking run: decision round plus the size of the
   self-leader set at the end (just before decisions). The post-GST pinned
   source is the LAST pid, which pre-GST never led — so the election has
   real work to do. *)
let a3_run (type s) (module A : C.Ess_consensus.OBSERVABLE with type state = s)
    ~gst ~seed =
  let n = 8 in
  let leaders : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let observe ~pid ~round st =
    if A.is_leader st then
      Hashtbl.replace leaders round
        (pid :: Option.value ~default:[] (Hashtbl.find_opt leaders round))
  in
  let module R = G.Runner.Make (A) in
  let config =
    G.Runner.default_config ~horizon:1200 ~seed
      ~inputs:(Exp_consensus.ordered_inputs ~n (Anon_kernel.Rng.make seed))
      ~crash:(G.Crash.none ~n)
      (G.Adversary.ess_blocking ~gst ~source:(n - 1) ())
  in
  let out = R.run ~observe config in
  let last = out.rounds_executed - 1 in
  let sizes =
    List.init (max 1 last) (fun i ->
        List.length
          (List.sort_uniq Int.compare
             (Option.value ~default:[] (Hashtbl.find_opt leaders (i + 1)))))
  in
  let mean_leaders = Anon_kernel.Stats.mean (List.map float_of_int sizes) in
  (G.Runner.decision_round out, mean_leaders,
   List.length (G.Checker.check_consensus ~expect_termination:false out.trace))

let a3 () =
  let gst = 20 in
  let row (type s) name (module A : C.Ess_consensus.OBSERVABLE with type state = s) =
    let runs = List.map (fun seed -> a3_run (module A) ~gst ~seed) (Runs.seeds 10) in
    let decisions = List.filter_map (fun (d, _, _) -> d) runs in
    let leaders = List.map (fun (_, l, _) -> l) runs in
    let safety = List.fold_left (fun acc (_, _, s) -> acc + s) 0 runs in
    [
      name;
      Printf.sprintf "%d/%d" (List.length decisions) (List.length runs);
      (match decisions with
      | [] -> "-"
      | ds -> Table.cell_float (Anon_kernel.Stats.mean (List.map float_of_int ds)));
      Table.cell_float (Anon_kernel.Stats.mean leaders);
      Table.cell_int safety;
    ]
  in
  Table.make ~id:"A3" ~title:"Ablation: counter tables merged with max instead of min"
    ~claim:"Alg. 3 line 8 — min-merge drags stale counters down; with max, self-counters never decay and everybody stays a leader (the election is void)"
    ~expectation:"min: leader set collapses (mean ~2); max: everybody leads (mean ~n). Decisions stall only when leadership gates proposals (leaders-only rows, cf. A1b): min+LO pays the counter-overtake delay, max+LO decides fast because everybody is a leader"
    ~headers:[ "algorithm"; "decided"; "mean-round"; "mean-leaders/round"; "safety-viol" ]
    ~rows:
      [
        row "ESS min (paper)" (module C.Ess_consensus);
        row "ESS max-merge" (module Ess_max);
        row "ESS min, leaders-only" (module Min_leaders_only);
        row "ESS max, leaders-only" (module Max_leaders_only);
      ]
