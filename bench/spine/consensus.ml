(* One-shot consensus runs, as [anonc run --schedule blocking] performs
   and checks them. The traced sample drives [Step_core.Consensus] over a
   timed algorithm with [Runner.run]'s own loop and RNG split, so every
   phase of a round is timed from outside; it must decide exactly as
   [Runner.run] does. *)

open Anon_kernel
module G = Anon_giraf

let sp_run = Span.make "runner.run"
let sp_round = Span.make "runner.round"
let sp_begin = Span.make "step_core.begin_round"
let sp_phase = Span.make "step_core.compute"
let sp_ctx = Span.make "step_core.ctx"
let sp_deliver = Span.make "step_core.deliver"
let sp_env = Span.make "checker.env"
let sp_consensus = Span.make "checker.consensus"

module type PARAMS = sig
  val name : string
  val n : int
  val gst : int
  val horizon : int
  val failures : int
  val adversary : G.Adversary.t
end

let judge ~all_decided ~rounds = function
  | v :: _ -> Error (Format.asprintf "checker: %a" G.Checker.pp_violation v)
  | [] ->
    if all_decided then Ok (float_of_int rounds)
    else Error (Printf.sprintf "undecided after %d rounds" rounds)

let check_trace trace =
  Span.time sp_env (fun () -> G.Checker.check_env trace)
  @ Span.time sp_consensus (fun () -> G.Checker.check_consensus trace)

type traced_run = {
  trace : G.Trace.t;
  decisions : (int * int * Value.t) list;
  all_decided : bool;
  rounds : int;
  delivered : int;
  timely : int;
}

module Make (A : G.Intf.ALGORITHM) (P : PARAMS) = struct
  module R = G.Runner.Make (A)
  module Core = G.Step_core.Consensus (Timed.Algorithm (A))

  let name = P.name
  let jobs = 1

  type input = G.Runner.config

  (* What a run leaves for checking, without its trace: holding one
     trace of a wide run across the timed loop would set the peak memory
     by which seed came first. *)
  type output = {
    decisions : (int * int * Value.t) list;
    all_decided : bool;
    rounds : int;
    broadcasts : int;
    deliveries : int;
    violations : G.Checker.violation list;
  }

  (* Inputs, crash victims and crash rounds as [anonc run --schedule
     blocking] derives them from its seed, but every crash is silent: a
     crasher that still reaches some processes timely in its last round
     breaks the blocking schedule early on about a third of the seeds, so
     the cost of a run would depend on its seed. *)
  let prepare ~seed =
    let rng = Rng.make seed in
    let inputs = Anon_harness.Exp_consensus.ordered_inputs ~n:P.n rng in
    let crash =
      G.Crash.random ~n:P.n ~failures:P.failures
        ~max_round:(max 1 (min P.horizon (P.gst + 10)))
        rng
      |> G.Crash.events
      |> List.map (fun (e : G.Crash.event) -> { e with broadcast = G.Crash.Silent })
      |> G.Crash.of_events ~n:P.n
    in
    G.Runner.default_config ~horizon:P.horizon ~seed ~inputs ~crash P.adversary

  let run config =
    let o = R.run config in
    {
      decisions = o.decisions;
      all_decided = o.all_correct_decided;
      rounds = o.rounds_executed;
      broadcasts = o.messages_sent;
      deliveries = o.deliveries;
      violations = G.Checker.check_env o.trace @ G.Checker.check_consensus o.trace;
    }

  let check o = judge ~all_decided:o.all_decided ~rounds:o.rounds o.violations

  let describe o =
    Printf.sprintf "rounds_to_decide %d, broadcasts %d, deliveries %d" o.rounds
      o.broadcasts o.deliveries

  (* [Runner.run] without a recorder, phase by phase. *)
  let traced_run (config : G.Runner.config) =
    Span.time sp_run (fun () ->
        let rng = Rng.make config.seed in
        let crash_rng = Rng.split rng in
        let adversary = Timed.adversary config.adversary in
        let core =
          Core.create ~inputs:config.inputs ~crash:config.crash ~churn:config.churn
            ~env:(G.Adversary.env config.adversary)
        in
        let decisions = ref [] and rounds = ref [] in
        let delivered = ref 0 and timely = ref 0 in
        let round = ref 1 and continue = ref true in
        while !continue && !round <= config.horizon do
          let k = !round in
          Span.time ~round:k sp_round (fun () ->
              Span.time ~round:k sp_begin (fun () -> Core.begin_round core);
              let decided_now = ref [] in
              let on_decide ~pid ~round ~value =
                decided_now := (pid, value) :: !decided_now;
                decisions := (pid, round, value) :: !decisions
              in
              let outgoing =
                Span.time ~round:k sp_phase (fun () -> Core.compute core ~on_decide)
              in
              let ctx = Span.time ~round:k sp_ctx (fun () -> Core.ctx core) in
              let plan = G.Adversary.plan adversary ctx rng in
              let stats =
                Span.time ~round:k sp_deliver (fun () ->
                    Core.deliver core ~plan ~crash_rng)
              in
              delivered := !delivered + stats.delivered;
              timely := !timely + stats.timely_count;
              rounds :=
                {
                  G.Trace.round = k;
                  senders = List.map (fun { G.Dispatch.sender; _ } -> sender) outgoing;
                  crashing = Core.crashing_pids core;
                  source = plan.source;
                  timely = stats.timely;
                  obligated = ctx.obligated;
                  decided = List.rev !decided_now;
                  msg_sizes =
                    List.map
                      (fun { G.Dispatch.sender; msg } -> (sender, A.msg_size msg))
                      outgoing;
                }
                :: !rounds;
              if config.stop_on_decision && Core.undecided_correct_stayers core = []
              then continue := false;
              incr round)
        done;
        {
          trace =
            {
              G.Trace.n = Array.length config.inputs;
              inputs = config.inputs;
              crash = config.crash;
              churn = config.churn;
              env = G.Adversary.env config.adversary;
              rounds = List.rev !rounds;
            };
          decisions = List.rev !decisions;
          all_decided = Core.undecided_correct_stayers core = [];
          rounds = min (!round - 1) config.horizon;
          delivered = !delivered;
          timely = !timely;
        })

  let traced ~seed ~reference ~reference_ms =
    let config = prepare ~seed in
    let (t, violations, kernel), wall_ns =
      Workload.traced_sample (fun () ->
          let before = Timed.kernel () in
          let t = traced_run config in
          let violations = check_trace t.trace in
          (t, violations, Timed.kernel_delta ~before ~after:(Timed.kernel ())))
    in
    let failures =
      (match judge ~all_decided:t.all_decided ~rounds:t.rounds violations with
      | Ok _ -> []
      | Error e -> [ "traced sample: " ^ e ])
      @
      if t.decisions = reference.decisions && t.rounds = reference.rounds then []
      else [ "traced decisions or rounds differ from Runner.run's" ]
    in
    let metrics =
      kernel @ Timed.core_metrics ()
      @ [
          ("step_core.begin_round_ms", Span.total_ms sp_begin);
          ("step_core.inbox_ms", Span.self_ms sp_phase);
          ("step_core.ctx_ms", Span.total_ms sp_ctx);
          ("step_core.deliver_ms", Span.total_ms sp_deliver);
          ("step_core.deliveries", float_of_int t.delivered);
          ( "step_core.timely_frac",
            if t.delivered = 0 then 0.
            else float_of_int t.timely /. float_of_int t.delivered );
          ("checker.env_ms", Span.total_ms sp_env);
          ("checker.consensus_ms", Span.total_ms sp_consensus);
          ("runner.self_ms", Span.self_ms sp_run +. Span.self_ms sp_round);
        ]
      @ Workload.trace_metrics ~wall_ns ~reference_ms
    in
    { Workload.metrics; failures }
end

(* Why these two: see README.md ("Workloads"). *)
module Ess_long =
  Make
    (Anon_consensus.Ess_consensus)
    (struct
      let name = "ess-long"
      let n = 5
      let gst = 300
      let horizon = 400
      let failures = 0
      let adversary = G.Adversary.ess_blocking ~gst ()
    end)

module Es_wide =
  Make
    (Anon_consensus.Es_consensus)
    (struct
      let name = "es-wide"
      let n = 64
      let gst = 40
      let horizon = 140
      let failures = 4
      let adversary = G.Adversary.es_blocking ~gst ()
    end)
