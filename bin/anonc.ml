(* anonc — command-line driver for the anonymous-consensus simulator.

   Subcommands:
     run        one consensus run (ES or ESS), with trace and checker output
     weakset    drive the MS weak-set with a random workload
     emulate    run Alg. 5's MS emulation hosting the ES algorithm
     sigma      replay the Prop. 4 two-run adversary
     metrics    run a seed batch with instrumentation on; print the merged snapshot
     fuzz       random-config fuzzing with shrinking + JSON repro/replay
     mc         bounded exhaustive model checking (symmetry-reduced)
     load       open-loop multi-shot load generator over the RSM layer
     live       consensus on the live async backend (wall clock + faulty wire)
     experiment run one experiment table (or all) from the registry
     list       list experiment ids *)

open Cmdliner
module G = Anon_giraf
module C = Anon_consensus
module H = Anon_harness
module O = Anon_obs
module Ch = Anon_chaos

let ppf = Format.std_formatter

(* Every subcommand's EXIT STATUS section. A command-line parse error,
   which cmdliner reports as [Cmd.Exit.cli_error], exits 2 like every other
   invalid input (see the entry point). *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:"on a safety violation, a fuzz finding, a replay mismatch, or an \
            output file that cannot be written.";
    Cmd.Exit.info 2
      ~doc:"on invalid input: a command-line parse error or an invalid \
            configuration.";
  ]

(* --- shared options ------------------------------------------------------- *)

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let gst_arg =
  Arg.(value & opt int 10 & info [ "gst" ] ~docv:"ROUND" ~doc:"Stabilization round.")

(* One definition for every subcommand's --horizon (they differ only in
   the default that suits the workload). *)
let horizon_arg ?(default = 300) () =
  Arg.(value & opt int default & info [ "horizon" ] ~docv:"ROUNDS" ~doc:"Round limit.")

let failures_arg =
  Arg.(value & opt int 0 & info [ "failures" ] ~docv:"F" ~doc:"Crashing processes.")

let rounds_trace_arg =
  Arg.(value & flag
       & info [ "rounds" ] ~doc:"Print the full round-by-round textual trace.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ] ~doc:"Collect run metrics and print them after the run.")

let json_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "json-trace" ] ~docv:"FILE"
           ~doc:"Stream structured events (one JSON object per line) to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file to $(docv): per-process \
                 round spans, message flow edges, decide/crash instants. Open \
                 it in ui.perfetto.dev or chrome://tracing. Deterministic at a \
                 fixed seed.")

(* Build a recorder from the [--metrics] / [--json-trace FILE] /
   [--trace FILE] options and run [f] with it; then close the trace files
   and print the metrics table. A trace file that cannot be opened or
   written ends [anonc] with exit 1. *)
let with_recorder ?(trace = None) ~metrics ~json_trace f =
  let registry = if metrics then O.Metrics.create () else O.Metrics.disabled in
  let open_trace make path =
    match open_out path with
    | oc -> (path, make oc)
    | exception Sys_error msg ->
      Format.eprintf "anonc: cannot open trace file: %s@." msg;
      exit 1
  in
  let files =
    List.filter_map
      (fun (path, make) -> Option.map (open_trace make) path)
      [ (json_trace, O.Sink.jsonl); (trace, O.Trace.chrome) ]
  in
  let close () =
    List.iter
      (fun (path, sink) ->
        try O.Sink.close sink
        with Sys_error msg ->
          Format.eprintf "anonc: cannot write trace file: %s: %s@." path msg;
          exit 1)
      files
  in
  let sink = O.Sink.tee (List.map snd files) in
  let result =
    Fun.protect ~finally:close (fun () ->
        f (O.Recorder.create ~metrics:registry ~sink ()))
  in
  if metrics then O.Metrics.render ppf (O.Metrics.snapshot registry);
  Option.iter (Format.fprintf ppf "json trace written to %s@.") json_trace;
  Option.iter
    (Format.fprintf ppf "chrome trace written to %s (open in ui.perfetto.dev)@.")
    trace;
  result

(* The one file writer: [json] and a newline to [path]. A path that
   cannot be opened, written or closed ends [anonc CMD] with exit 1. *)
let write_json ~cmd path json =
  let fail msg =
    (* [Sys_error]'s text starts with the path when it names one. *)
    let named = path ^ ": " in
    let msg =
      if String.starts_with ~prefix:named msg then
        String.sub msg (String.length named) (String.length msg - String.length named)
      else msg
    in
    Format.eprintf "anonc %s: cannot write %s: %s@." cmd path msg;
    exit 1
  in
  match open_out path with
  | exception Sys_error msg -> fail msg
  | oc -> (
    try
      output_string oc (O.Json.to_string json);
      output_char oc '\n';
      close_out oc
    with Sys_error msg ->
      close_out_noerr oc;
      fail msg)

(* --- run ------------------------------------------------------------------ *)

type algo = Es | Ess

let algo_arg =
  let of_string = Arg.enum [ ("es", Es); ("ess", Ess) ] in
  Arg.(value & opt of_string Es & info [ "algo" ] ~docv:"ALGO" ~doc:"es or ess.")

type schedule = Blocking | Noisy | Synchronous

let schedule_arg =
  let of_string =
    Arg.enum [ ("blocking", Blocking); ("noisy", Noisy); ("sync", Synchronous) ]
  in
  Arg.(value & opt of_string Noisy
       & info [ "schedule" ] ~docv:"SCHED"
           ~doc:"blocking (worst case), noisy (random extra links) or sync.")

let adversary_of ~algo ~schedule ~gst =
  match algo, schedule with
  | _, Synchronous -> G.Adversary.sync ()
  | Es, Blocking -> G.Adversary.es_blocking ~gst ()
  | Es, Noisy -> G.Adversary.es ~gst ~noise:0.25 ()
  | Ess, Blocking -> G.Adversary.ess_blocking ~gst ()
  | Ess, Noisy -> G.Adversary.ess ~gst ~noise:0.25 ()

(* "p0@3,p2@1-4": p0 leaves at round 3 forever, p2 leaves at 1 and rejoins
   at 4. *)
let churn_of_spec ~n spec =
  if spec = "" then G.Churn.none ~n
  else
    let parse_one part =
      let fail () =
        Format.eprintf
          "anonc: bad --churn entry %S (expected pN@LEAVE or pN@LEAVE-REJOIN)@."
          part;
        exit 2
      in
      match String.split_on_char '@' part with
      | [ pid; rounds ] ->
        let pid =
          match int_of_string_opt (
            if String.length pid > 1 && pid.[0] = 'p' then
              String.sub pid 1 (String.length pid - 1)
            else pid)
          with
          | Some p -> p
          | None -> fail ()
        in
        (match String.split_on_char '-' rounds with
        | [ leave ] -> (
          match int_of_string_opt leave with
          | Some leave -> { G.Churn.pid; leave; rejoin = None }
          | None -> fail ())
        | [ leave; rejoin ] -> (
          match (int_of_string_opt leave, int_of_string_opt rejoin) with
          | Some leave, Some rejoin -> { G.Churn.pid; leave; rejoin = Some rejoin }
          | _ -> fail ())
        | _ -> fail ())
      | _ -> fail ()
    in
    match G.Churn.of_events ~n (List.map parse_one (String.split_on_char ',' spec)) with
    | churn -> churn
    | exception Invalid_argument msg ->
      Format.eprintf "anonc: bad --churn spec: %s@." msg;
      exit 2

let env_override_arg =
  Cmdliner.Arg.(
    value & opt (some string) None
    & info [ "env" ] ~docv:"ENV"
        ~doc:"Environment override; currently dynamic:S or dynamic:S:unrooted \
              (per-round communication graphs, healed for S-round windows). \
              Replaces --schedule's adversary.")

(* [--env SPEC] of [run] and [load]: the [dynamic:S] window and rootedness,
   or exit 2 naming [static], how the command picks a static environment. *)
let dynamic_of_spec ~cmd ~static spec =
  match G.Env.of_string spec with
  | Ok (G.Env.Dynamic { stability; rooted }) -> (stability, rooted)
  | Ok _ ->
    Format.eprintf
      "anonc %s: --env %s not supported here (only dynamic:...; use %s for the \
       static environments)@."
      cmd spec static;
    exit 2
  | Error e ->
    Format.eprintf "anonc %s: %s@." cmd e;
    exit 2

let churn_spec_arg =
  Cmdliner.Arg.(
    value & opt string ""
    & info [ "churn" ] ~docv:"SPEC"
        ~doc:"Join/leave schedule, e.g. p0@3,p2@1-4 (p2 leaves at round 1, \
              rejoins at 4 with a fresh state). Churners may not also crash.")

let report_outcome ~rounds (outcome : G.Runner.outcome) =
  if rounds then Format.fprintf ppf "%a@." G.Trace.pp outcome.trace;
  List.iter
    (fun (p, r, v) -> Format.fprintf ppf "decision: p%d at round %d = %d@." p r v)
    outcome.decisions;
  Format.fprintf ppf "all correct decided: %b (rounds executed: %d)@."
    outcome.all_correct_decided outcome.rounds_executed;
  Format.fprintf ppf "messages broadcast: %d; deliveries: %d (timely %d)@."
    outcome.messages_sent outcome.deliveries outcome.timely_deliveries;
  let report label vs =
    if vs = [] then Format.fprintf ppf "%s: ok@." label
    else
      List.iter (fun v -> Format.fprintf ppf "%s: %a@." label G.Checker.pp_violation v) vs
  in
  report "environment" (G.Checker.check_env outcome.trace);
  report "consensus"
    (G.Checker.check_consensus ~expect_termination:false outcome.trace)

let run_cmd =
  let run algo schedule env_override churn_spec n gst seed horizon failures
      rounds trace metrics json_trace =
    let rng = Anon_kernel.Rng.make seed in
    let inputs =
      match schedule with
      | Blocking -> H.Exp_consensus.ordered_inputs ~n rng
      | Noisy | Synchronous -> H.Runs.distinct_inputs ~n rng
    in
    let churn = churn_of_spec ~n churn_spec in
    let crash =
      G.Crash.random ~n ~failures ~max_round:(max 1 (min horizon (gst + 10))) rng
    in
    let adversary =
      match env_override with
      | None -> adversary_of ~algo ~schedule ~gst
      | Some spec ->
        let stability, rooted = dynamic_of_spec ~cmd:"run" ~static:"--schedule" spec in
        let noise = match schedule with Noisy -> 0.25 | _ -> 0. in
        G.Adversary.dynamic ~stability ~rooted ~noise ()
    in
    let config =
      G.Runner.default_config ~horizon ~seed ~inputs ~crash ~churn adversary
    in
    Format.fprintf ppf "algorithm: %s; env: %a; inputs: [%s]; crash: %a; churn: %a@."
      (match algo with Es -> C.Es_consensus.name | Ess -> C.Ess_consensus.name)
      G.Env.pp (G.Adversary.env adversary)
      (String.concat ";" (List.map string_of_int inputs))
      G.Crash.pp crash G.Churn.pp churn;
    with_recorder ~trace ~metrics ~json_trace (fun recorder ->
        match algo with
        | Es ->
          let module R = G.Runner.Make (C.Es_consensus) in
          report_outcome ~rounds (R.run ~recorder config)
        | Ess ->
          let module R = G.Runner.Make (C.Ess_consensus) in
          report_outcome ~rounds (R.run ~recorder config))
  in
  Cmd.v (Cmd.info "run" ~exits ~doc:"Run one consensus simulation.")
    Term.(
      const run $ algo_arg $ schedule_arg $ env_override_arg $ churn_spec_arg
      $ n_arg $ gst_arg $ seed_arg $ horizon_arg () $ failures_arg
      $ rounds_trace_arg $ trace_arg $ metrics_arg $ json_trace_arg)

(* --- weakset -------------------------------------------------------------- *)

let weakset_cmd =
  let run n seed horizon failures ops trace metrics json_trace =
    let rng = Anon_kernel.Rng.make seed in
    let crash = G.Crash.random ~n ~failures ~max_round:(max 1 horizon) rng in
    let workload =
      G.Runner.Ws.random_workload ~n ~ops_per_client:ops
        ~max_start:(horizon / 2) ~value_range:10_000 rng
    in
    let config =
      {
        G.Runner.Ws.n;
        crash;
        churn = G.Churn.none ~n;
        adversary = G.Adversary.ms ();
        horizon;
        seed;
      }
    in
    let module W = G.Runner.Ws.Make (C.Weak_set_ms) in
    with_recorder ~trace ~metrics ~json_trace (fun recorder ->
        let out = W.run ~recorder config ~workload in
        List.iter
          (fun (a : G.Runner.Ws.add_record) ->
            Format.fprintf ppf "add p%d v=%d: round %d to %s@." a.client a.value
              a.invoked_round
              (match a.completed_round with None -> "pending" | Some r -> string_of_int r))
          out.adds;
        let viol = G.Checker.check_weak_set ~correct:(G.Crash.correct crash) out.ops in
        Format.fprintf ppf "ops: %d; weak-set semantics: %s@." (List.length out.ops)
          (if viol = [] then "ok" else string_of_int (List.length viol) ^ " violations");
        List.iter (fun v -> Format.fprintf ppf "  %a@." G.Checker.pp_violation v) viol)
  in
  let ops_arg =
    Arg.(value & opt int 6 & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per client.")
  in
  Cmd.v (Cmd.info "weakset" ~exits ~doc:"Drive the MS weak-set (Alg. 4).")
    Term.(
      const run $ n_arg $ seed_arg $ horizon_arg ~default:120 () $ failures_arg
      $ ops_arg $ trace_arg $ metrics_arg $ json_trace_arg)

(* --- emulate -------------------------------------------------------------- *)

let emulate_cmd =
  let run n seed rounds =
    let rng = Anon_kernel.Rng.make seed in
    let inputs = H.Runs.distinct_inputs ~n rng in
    let config =
      C.Ms_emulation.default_config ~inputs ~crash:(G.Crash.none ~n)
        ~horizon_rounds:rounds ~seed ()
    in
    let module E = C.Ms_emulation.Make (C.Es_consensus) in
    let out = E.run config in
    Format.fprintf ppf
      "emulated %d steps; per-process rounds: [%s]; hosted decisions: %d@." out.steps
      (String.concat ";" (Array.to_list (Array.map string_of_int out.rounds_completed)))
      (List.length out.decisions);
    let env = G.Checker.check_env out.trace in
    Format.fprintf ppf "MS property over emulated rounds: %s@."
      (if env = [] then "ok (Thm. 4 holds)" else string_of_int (List.length env) ^ " violations")
  in
  Cmd.v (Cmd.info "emulate" ~exits ~doc:"Emulate MS from a weak-set (Alg. 5).")
    Term.(const run $ n_arg $ seed_arg
          $ Arg.(value & opt int 60 & info [ "rounds" ] ~doc:"Emulated rounds."))

(* --- skew ------------------------------------------------------------------ *)

let skew_cmd =
  let run n seed max_pace max_delay ticks =
    let module S = G.Skew_runner.Make (C.Es_consensus) in
    let rng = Anon_kernel.Rng.make seed in
    let config =
      G.Skew_runner.default_config ~seed ~horizon_ticks:ticks
        ~pace:(G.Skew_runner.uniform_pace ~max:max_pace)
        ~delay:(G.Skew_runner.uniform_delay ~max:max_delay)
        ~inputs:(H.Runs.distinct_inputs ~n rng)
        ~crash:(G.Crash.none ~n) ()
    in
    let out = S.run config in
    Format.fprintf ppf "rounds completed: [%s] in %d ticks@."
      (String.concat ";" (Array.to_list (Array.map string_of_int out.rounds_completed)))
      out.ticks;
    List.iter
      (fun (p, r, v) -> Format.fprintf ppf "decision: p%d at its round %d = %d@." p r v)
      out.decisions;
    let cons = G.Checker.check_consensus ~expect_termination:false out.trace in
    if cons = [] then Format.fprintf ppf "consensus properties: ok@."
    else begin
      Format.fprintf ppf
        "consensus violations (no environment obligation was promised!):@.";
      List.iter (fun v -> Format.fprintf ppf "  %a@." G.Checker.pp_violation v) cons
    end
  in
  Cmd.v
    (Cmd.info "skew" ~exits
       ~doc:"Run ES consensus with unsynchronized rounds (relay semantics).")
    Term.(
      const run $ n_arg $ seed_arg
      $ Arg.(value & opt int 3 & info [ "max-pace" ] ~doc:"Max ticks between a process's rounds.")
      $ Arg.(value & opt int 4 & info [ "max-delay" ] ~doc:"Max broadcast latency in ticks.")
      $ Arg.(value & opt int 2000 & info [ "ticks" ] ~doc:"Tick horizon."))

(* --- sigma ---------------------------------------------------------------- *)

let sigma_cmd =
  let run horizon =
    List.iter
      (fun (module Cand : C.Sigma.CANDIDATE) ->
        let verdict = C.Sigma.two_run_attack (module Cand) ~horizon in
        Format.fprintf ppf "%-28s %a@." Cand.name C.Sigma.pp_verdict verdict)
      C.Sigma.builtin_candidates
  in
  Cmd.v (Cmd.info "sigma" ~exits ~doc:"Prop. 4: defeat candidate Σ emulators.")
    Term.(const run $ horizon_arg ~default:200 ())

(* --- metrics --------------------------------------------------------------- *)

let metrics_cmd =
  let run algo schedule n gst seed horizon failures runs json out =
    let batch =
      let inputs rng =
        match schedule with
        | Blocking -> H.Exp_consensus.ordered_inputs ~n rng
        | Noisy | Synchronous -> H.Runs.distinct_inputs ~n rng
      in
      let crash rng =
        G.Crash.random ~n ~failures ~max_round:(max 1 (min horizon (gst + 10))) rng
      in
      let adversary _ = adversary_of ~algo ~schedule ~gst in
      let seeds = H.Runs.seeds ~base:seed runs in
      match algo with
      | Es ->
        let module B = H.Runs.Of (C.Es_consensus) in
        B.batch ~horizon ~metrics:true ~inputs ~crash ~adversary ~seeds ()
      | Ess ->
        let module B = H.Runs.Of (C.Ess_consensus) in
        B.batch ~horizon ~metrics:true ~inputs ~crash ~adversary ~seeds ()
    in
    match batch.metrics with
    | None -> ()
    | Some snap ->
      Option.iter
        (fun path ->
          write_json ~cmd:"metrics" path (O.Metrics.to_json snap);
          Format.fprintf ppf "metrics snapshot written to %s@." path)
        out;
      if json then print_endline (O.Json.to_string (O.Metrics.to_json snap))
      else begin
        Format.fprintf ppf
          "%d runs (n=%d, gst=%d): %d decided, %d safety violations@."
          batch.runs n gst batch.decided (H.Runs.safety_violations batch);
        O.Metrics.render ppf snap;
        match H.Runs.metrics_note batch with
        | Some note -> Format.fprintf ppf "%s@." note
        | None -> ()
      end
  in
  let runs_arg =
    Arg.(value & opt int 10 & info [ "runs" ] ~docv:"K" ~doc:"Seeds in the batch.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the merged snapshot as JSON.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Also write the full merged snapshot (counters, gauges, \
                   histogram summaries) as JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "metrics" ~exits
       ~doc:"Run a batch with instrumentation on; print the merged metrics.")
    Term.(
      const run $ algo_arg $ schedule_arg $ n_arg $ gst_arg $ seed_arg
      $ horizon_arg () $ failures_arg $ runs_arg $ json_arg $ out_arg)

(* --- fuzz ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run runs seed inadmissible dynamic churn out replay =
    match replay with
    | Some path -> (
      match Ch.Fuzz.replay ~path with
      | Error e ->
        Format.eprintf "anonc fuzz: cannot replay %s: %s@." path e;
        exit 2
      | Ok r ->
        Format.fprintf ppf "replaying %a@." Ch.Scenario.pp r.case;
        List.iter
          (fun s -> Format.fprintf ppf "violation: %s@." s)
          (Ch.Fuzz.violation_strings r.actual);
        if r.matches then
          Format.fprintf ppf "replay: reproduced the recorded violations@."
        else begin
          Format.fprintf ppf "replay: MISMATCH — repro file recorded %d violations@."
            (List.length r.expected);
          exit 1
        end)
    | None -> (
      let report = Ch.Fuzz.campaign ~inadmissible ~dynamic ~churn ~runs ~seed () in
      match report.finding with
      | None ->
        Format.fprintf ppf "fuzz: %d runs, no violations@." report.runs_done;
        if inadmissible then begin
          Format.eprintf
            "anonc fuzz: inadmissible mode found nothing — the checker missed a \
             forced model violation@.";
          exit 1
        end
      | Some f ->
        Format.fprintf ppf "fuzz: violation after %d runs@." report.runs_done;
        Format.fprintf ppf "original: %a@." Ch.Scenario.pp f.original;
        Format.fprintf ppf "shrunk:   %a (%d shrink candidates)@." Ch.Scenario.pp
          f.case f.explored;
        List.iter
          (fun s -> Format.fprintf ppf "violation: %s@." s)
          (Ch.Fuzz.violation_strings f.violations);
        let path = Option.value out ~default:"fuzz-repro.json" in
        write_json ~cmd:"fuzz" path (Ch.Fuzz.repro_json f);
        Format.fprintf ppf "repro written to %s (replay with --replay)@." path;
        exit 1)
  in
  let runs_arg =
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"K" ~doc:"Cases to sample.")
  in
  let inadmissible_arg =
    Arg.(value & flag
         & info [ "inadmissible" ]
             ~doc:"Arm a deliberately model-violating fault mode in every case; the \
                   campaign must then find a violation (checker self-test).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Repro file path (default fuzz-repro.json).")
  in
  let dynamic_arg =
    Arg.(value & flag
         & info [ "dynamic" ]
             ~doc:"Sample dynamic-graph environment overrides (per-round \
                   communication graphs with stability windows).")
  in
  let churn_arg =
    Arg.(value & flag
         & info [ "churn" ]
             ~doc:"Sample join/leave schedules (distinct from crashes; \
                   rejoiners restart from their input with empty state).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a repro file instead of fuzzing; exits 0 iff the recorded \
                   violations reproduce identically.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:"Fuzz random configurations against the checker; shrink and save \
             counterexamples.")
    Term.(const run $ runs_arg $ seed_arg $ inadmissible_arg $ dynamic_arg
          $ churn_arg $ out_arg $ replay_arg)

(* --- mc -------------------------------------------------------------------- *)

let mc_cmd =
  let module Mc = Anon_mc.Mc in
  let run algo env gst n rounds crashes churn max_delay search armed seed
      ops_per_client out progress trace metrics json_trace =
    let env =
      match env with
      | None -> (
        match algo with
        | Mc.Es | Mc.Es_unguarded -> G.Env.Es { gst }
        | Mc.Ess -> G.Env.Ess { gst }
        | Mc.Ms_weakset -> G.Env.Ms)
      | Some "sync" -> G.Env.Sync
      | Some "ms" -> G.Env.Ms
      | Some "es" -> G.Env.Es { gst }
      | Some "ess" -> G.Env.Ess { gst }
      | Some "async" -> G.Env.Async
      | Some spec -> (
        match G.Env.of_string spec with
        | Ok env -> env
        | Error _ ->
          Format.eprintf
            "anonc mc: unknown --env %s (sync|ms|es|ess|async|dynamic:S[:unrooted])@."
            spec;
          exit 2)
    in
    let config =
      {
        Mc.algo;
        n;
        env;
        rounds;
        crashes;
        churn;
        max_delay;
        search;
        armed;
        jobs = None;
        seed;
        ops_per_client;
      }
    in
    let verdict =
      with_recorder ~trace ~metrics ~json_trace (fun recorder ->
          let report =
            Mc.run ~recorder
              ?progress:(if progress then Some Format.err_formatter else None)
              config
          in
          Format.fprintf ppf "%a@." Mc.pp_report report;
          (match (out, report.Mc.witness) with
          | Some path, Some w ->
            write_json ~cmd:"mc" path (Ch.Fuzz.repro_json w);
            Format.fprintf ppf "repro written to %s (replay with anonc fuzz --replay)@."
              path
          | _ -> ());
          report.Mc.verdict)
    in
    if verdict = Mc.Violation then exit 1
  in
  let algo_arg =
    let of_string =
      Arg.enum
        [
          ("es", Mc.Es);
          ("ess", Mc.Ess);
          ("ms-weakset", Mc.Ms_weakset);
          ("es-unguarded", Mc.Es_unguarded);
        ]
    in
    Arg.(value & opt of_string Mc.Es
         & info [ "algo" ] ~docv:"ALGO" ~doc:"es, ess, ms-weakset or es-unguarded.")
  in
  let env_arg =
    Arg.(value & opt (some string) None
         & info [ "env" ] ~docv:"ENV"
             ~doc:"Environment to enumerate plans for: sync, ms, es, ess, async or \
                   dynamic:S[:unrooted] (default: the algorithm's native one).")
  in
  let n_arg =
    Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")
  in
  let rounds_arg =
    Arg.(value & opt int 4
         & info [ "rounds" ] ~docv:"K" ~doc:"Depth bound (adversary rounds per branch).")
  in
  let crashes_arg =
    Arg.(value & opt int 0
         & info [ "crashes" ] ~docv:"F" ~doc:"Crash budget (max crashing processes).")
  in
  let churn_arg =
    Arg.(value & opt int 0
         & info [ "churn" ] ~docv:"C"
             ~doc:"Churn budget (max join/leave processes; schedules enumerated \
                   like crashes and crossed with them, pid-disjoint).")
  in
  let max_delay_arg =
    Arg.(value & opt int 1
         & info [ "max-delay" ] ~docv:"D"
             ~doc:"Late arrivals span round+1 .. round+D (D >= 1).")
  in
  let search_arg =
    let of_string = Arg.enum [ ("bfs", Mc.Bfs); ("dfs", Mc.Dfs) ] in
    Arg.(value & opt of_string Mc.Bfs
         & info [ "search" ] ~docv:"ORDER"
             ~doc:"bfs (shortest counterexamples) or dfs (memory-light).")
  in
  let armed_arg =
    Arg.(value & flag
         & info [ "armed"; "inadmissible" ]
             ~doc:"Also branch on one deliberately obligation-dropping plan per \
                   demanding round; the checker must flag it (self-test).")
  in
  let ops_arg =
    Arg.(value & opt int 2
         & info [ "ops-per-client" ] ~docv:"K" ~doc:"ms-weakset workload size per client.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write the witness repro JSON to $(docv).")
  in
  let progress_arg =
    Arg.(value & flag
         & info [ "progress" ]
             ~doc:"Print live exploration progress to stderr: one line per crash \
                   schedule and per BFS level (frontier size, canonical states, \
                   states/sec, dedup hit-rate).")
  in
  Cmd.v
    (Cmd.info "mc" ~exits
       ~doc:"Exhaustively model-check bounded schedules (symmetry-reduced); exits 1 \
             iff a violation is found.")
    Term.(
      const run $ algo_arg $ env_arg $ gst_arg $ n_arg $ rounds_arg $ crashes_arg
      $ churn_arg $ max_delay_arg $ search_arg $ armed_arg $ seed_arg
      $ ops_arg $ out_arg $ progress_arg $ trace_arg $ metrics_arg
      $ json_trace_arg)

(* --- load ------------------------------------------------------------------ *)

let load_cmd =
  let run algo n gst env_override rate sweep proposals window batch shards skew
      value_range hot_value horizon seed failures churn_spec out metrics
      json_trace =
    (* Checked before any shard starts: [Crash.random] rejects a bad count
       too, but only once the first shard builds its crash schedule. *)
    if failures < 0 || failures > n then
      G.Config_error.fail ~where:"anonc load"
        (Printf.sprintf "failures must be in [0, n] (got %d of n=%d)" failures n);
    let rates = match sweep with [] -> [ rate ] | rs -> rs in
    let make_adversary =
      match env_override with
      | None -> (
        fun ~shard:_ ~instance:_ ->
          match algo with
          | Es -> G.Adversary.es ~gst ()
          | Ess -> G.Adversary.ess ~gst ())
      | Some spec ->
        let stability, rooted = dynamic_of_spec ~cmd:"load" ~static:"--algo/--gst" spec in
        fun ~shard:_ ~instance:_ -> G.Adversary.dynamic ~stability ~rooted ()
    in
    let env_label =
      match env_override with
      | Some spec -> spec
      | None ->
        Printf.sprintf "%s:%d" (match algo with Es -> "es" | Ess -> "ess") gst
    in
    let churn ~shard:_ = churn_of_spec ~n churn_spec in
    (* Crash schedules are a pure function of (seed, shard), as the rest
       of a shard is. *)
    let crash ~shard =
      if failures = 0 then G.Crash.none ~n
      else
        let rng = Anon_kernel.Rng.make (seed + (7919 * (shard + 1))) in
        G.Crash.random ~n ~failures
          ~max_round:(max 1 (min horizon (gst + 10)))
          rng
    in
    let reports =
      with_recorder ~metrics ~json_trace (fun recorder ->
          List.map
            (fun rate ->
              let workload =
                Anon_rsm.Workload.make ~where:"anonc load" ~skew ~value_range
                  ~hot_value ~shards ~proposals ~rate ~seed ()
              in
              let report =
                match algo with
                | Es ->
                  let module L = Anon_rsm.Load.Make (C.Es_consensus) in
                  L.run ~metrics ~recorder ~env:env_label ~crash ~churn
                    ~n ~window ~batch ~horizon ~adversary:make_adversary
                    workload
                | Ess ->
                  let module L = Anon_rsm.Load.Make (C.Ess_consensus) in
                  L.run ~metrics ~recorder ~env:env_label ~crash ~churn
                    ~n ~window ~batch ~horizon ~adversary:make_adversary
                    workload
              in
              Anon_rsm.Load.render ppf report;
              (match report.Anon_rsm.Load.metrics with
              | Some snap -> O.Metrics.render ppf snap
              | None -> ());
              report)
            rates)
    in
    (match out with
    | None -> ()
    | Some path ->
      let doc =
        match reports with
        | [ r ] -> Anon_rsm.Load.to_json r
        | rs -> O.Json.List (List.map Anon_rsm.Load.to_json rs)
      in
      write_json ~cmd:"load" path doc;
      Format.fprintf ppf "load report written to %s@." path);
    if
      List.exists
        (fun (r : Anon_rsm.Load.report) ->
          not (r.agreement_ok && r.validity_ok))
        reports
    then begin
      Format.eprintf "anonc load: safety violation in a committed log@.";
      exit 1
    end
  in
  let rate_arg =
    Arg.(value & opt float 4.0
         & info [ "rate" ] ~docv:"R" ~doc:"Offered load, proposals per round.")
  in
  let sweep_arg =
    Arg.(value & opt (list float) []
         & info [ "sweep" ] ~docv:"R1,R2,..."
             ~doc:"Run one report per rate instead of --rate (a saturation \
                   series).")
  in
  let proposals_arg =
    Arg.(value & opt int 1_000
         & info [ "proposals" ] ~docv:"K" ~doc:"Total proposals per run.")
  in
  let window_arg =
    Arg.(value & opt int 4
         & info [ "window" ] ~docv:"W" ~doc:"In-flight consensus instances.")
  in
  let batch_arg =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"B"
             ~doc:"Max proposals folded into one instance (must be <= window).")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"S"
             ~doc:"Independent log partitions (a workload parameter).")
  in
  let skew_arg =
    Arg.(value & opt float 0.
         & info [ "skew" ] ~docv:"P"
             ~doc:"Probability a proposal carries the hot value, in [0,1].")
  in
  let value_range_arg =
    Arg.(value & opt int 16
         & info [ "value-range" ] ~docv:"V" ~doc:"Cold values are uniform in [0,V).")
  in
  let hot_value_arg =
    Arg.(value & opt int 0 & info [ "hot-value" ] ~docv:"V" ~doc:"The skewed value.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the deterministic anon-load/1 report JSON to $(docv) \
                   (a list when --sweep).")
  in
  Cmd.v
    (Cmd.info "load" ~exits
       ~doc:"Drive the multi-shot consensus service with an open-loop \
             workload; exits 1 on a safety violation, 2 on invalid \
             parameters.")
    Term.(
      const run $ algo_arg $ n_arg $ gst_arg $ env_override_arg $ rate_arg
      $ sweep_arg $ proposals_arg $ window_arg $ batch_arg $ shards_arg
      $ skew_arg $ value_range_arg $ hot_value_arg
      $ horizon_arg ~default:200_000 () $ seed_arg $ failures_arg
      $ churn_spec_arg $ out_arg $ metrics_arg $ json_trace_arg)

(* --- live ------------------------------------------------------------------ *)

type live_algo = L_es | L_ess | L_floodset | L_es_unguarded

let live_algo_name = function
  | L_es -> "es"
  | L_ess -> "ess"
  | L_floodset -> "floodset"
  | L_es_unguarded -> "es-unguarded"

let live_cmd =
  let module Lv = Anon_live in
  let pct h p = O.Hist.percentile h p in
  let render_report ppf ~algo ~n ~faults ~(config : Lv.Runner.config)
      (o : Lv.Runner.outcome) =
    Format.fprintf ppf "live run: algo=%s n=%d net=%s seed=%d@." algo n
      (Ch.Netfault.to_string faults) config.Lv.Runner.seed;
    Format.fprintf ppf "  backend=live clock=wall timeout=%gs..%gs@."
      config.Lv.Runner.timeout_init_s config.Lv.Runner.timeout_max_s;
    let decided = List.length o.Lv.Runner.decisions in
    let correct = List.length (G.Crash.correct config.Lv.Runner.crash) in
    if o.Lv.Runner.all_correct_decided then begin
      let values =
        List.sort_uniq Anon_kernel.Value.compare
          (List.map (fun (_, _, v) -> v) o.Lv.Runner.decisions)
      in
      let rounds = List.map (fun (_, r, _) -> r) o.Lv.Runner.decisions in
      let decided_correct = correct - List.length o.Lv.Runner.undecided in
      Format.fprintf ppf
        "outcome: DECIDED %d/%d correct%s, value%s %s, decide round %d..%d, \
         wall=%.2fs@."
        decided_correct correct
        (if decided > decided_correct then
           Printf.sprintf " (+%d crashed deciders)" (decided - decided_correct)
         else "")
        (if List.length values = 1 then "" else "s")
        (String.concat "," (List.map string_of_int values))
        (List.fold_left min max_int rounds)
        (List.fold_left max 0 rounds)
        o.Lv.Runner.wall_s
    end
    else begin
      Format.fprintf ppf
        "outcome: UNDECIDED (%d/%d correct undecided after %d rounds, \
         wall=%.2fs)@."
        (List.length o.Lv.Runner.undecided)
        correct o.Lv.Runner.rounds_max o.Lv.Runner.wall_s;
      (* Diagnostics: why each straggler stopped (capped at 8 lines). *)
      List.iteri
        (fun i pid ->
          if i < 8 then
            let p = o.Lv.Runner.processes.(pid) in
            Format.fprintf ppf "  diag: p%d stop=%s round=%d timeouts=%d@." pid
              (match p.Lv.Runner.stop with
              | Lv.Runner.Decided -> "decided"
              | Lv.Runner.Crashed -> "crashed"
              | Lv.Runner.Round_budget_exhausted -> "round-budget"
              | Lv.Runner.Wall_budget_exhausted -> "wall-budget")
              p.Lv.Runner.rounds_executed p.Lv.Runner.timeouts_expired)
        o.Lv.Runner.undecided;
      if List.length o.Lv.Runner.undecided > 8 then
        Format.fprintf ppf "  diag: ... %d more@."
          (List.length o.Lv.Runner.undecided - 8)
    end;
    if not (O.Hist.is_empty o.Lv.Runner.decide_latency) then
      Format.fprintf ppf
        "  decide latency: mean=%.3fs p50=%.3fs p99=%.3fs max=%.3fs@."
        (O.Hist.mean o.Lv.Runner.decide_latency)
        (pct o.Lv.Runner.decide_latency 50.)
        (pct o.Lv.Runner.decide_latency 99.)
        (O.Hist.max_value o.Lv.Runner.decide_latency);
    let t = o.Lv.Runner.transport in
    Format.fprintf ppf
      "  wire: copies=%d retransmissions=%d dups=%d delayed=%d severed=%d@."
      t.Lv.Transport.copies_sent t.Lv.Transport.retransmissions
      t.Lv.Transport.duplicated t.Lv.Transport.delayed t.Lv.Transport.severed;
    let rebroadcasts =
      Array.fold_left (fun a p -> a + p.Lv.Runner.rebroadcasts) 0 o.Lv.Runner.processes
    in
    let expirations =
      Array.fold_left
        (fun a p -> a + p.Lv.Runner.timeouts_expired)
        0 o.Lv.Runner.processes
    in
    let curve_max = List.fold_left Float.max 0. o.Lv.Runner.timeout_curve in
    Format.fprintf ppf
      "  pacing: rebroadcasts=%d timeouts=%d curve=[%s%s] max=%gs@." rebroadcasts
      expirations
      (String.concat ";"
         (List.filteri (fun i _ -> i < 10)
            (List.map (Printf.sprintf "%.3g") o.Lv.Runner.timeout_curve)))
      (if List.length o.Lv.Runner.timeout_curve > 10 then ";..." else "")
      curve_max;
    match o.Lv.Runner.safety with
    | [] -> Format.fprintf ppf "  safety: agreement+validity OK@."
    | vs ->
      List.iter
        (fun v -> Format.fprintf ppf "  SAFETY VIOLATION: %a@." G.Checker.pp_violation v)
        vs
  in
  let report_json ~algo ~n ~faults ~(config : Lv.Runner.config)
      (o : Lv.Runner.outcome) =
    let t = o.Lv.Runner.transport in
    O.Json.Obj
      [
        ("schema", O.Json.String "anon-live/1");
        ("algo", O.Json.String algo);
        ("n", O.Json.Int n);
        ("net", O.Json.String (Ch.Netfault.to_string faults));
        ("seed", O.Json.Int config.Lv.Runner.seed);
        ("timeout_init_s", O.Json.Float config.Lv.Runner.timeout_init_s);
        ("timeout_max_s", O.Json.Float config.Lv.Runner.timeout_max_s);
        ("decided", O.Json.Bool o.Lv.Runner.all_correct_decided);
        ( "decisions",
          O.Json.List
            (List.map
               (fun (pid, round, value) ->
                 O.Json.Obj
                   [
                     ("pid", O.Json.Int pid);
                     ("round", O.Json.Int round);
                     ("value", O.Json.Int value);
                   ])
               o.Lv.Runner.decisions) );
        ("undecided", O.Json.List (List.map (fun p -> O.Json.Int p) o.Lv.Runner.undecided));
        ("rounds_max", O.Json.Int o.Lv.Runner.rounds_max);
        ("wall_s", O.Json.Float o.Lv.Runner.wall_s);
        ( "decide_latency_s",
          if O.Hist.is_empty o.Lv.Runner.decide_latency then O.Json.Null
          else
            O.Json.Obj
              [
                ("mean", O.Json.Float (O.Hist.mean o.Lv.Runner.decide_latency));
                ("p50", O.Json.Float (pct o.Lv.Runner.decide_latency 50.));
                ("p99", O.Json.Float (pct o.Lv.Runner.decide_latency 99.));
                ("max", O.Json.Float (O.Hist.max_value o.Lv.Runner.decide_latency));
              ] );
        ( "transport",
          O.Json.Obj
            [
              ("copies_sent", O.Json.Int t.Lv.Transport.copies_sent);
              ("retransmissions", O.Json.Int t.Lv.Transport.retransmissions);
              ("duplicated", O.Json.Int t.Lv.Transport.duplicated);
              ("delayed", O.Json.Int t.Lv.Transport.delayed);
              ("severed", O.Json.Int t.Lv.Transport.severed);
            ] );
        ( "rebroadcasts",
          O.Json.Int
            (Array.fold_left
               (fun a p -> a + p.Lv.Runner.rebroadcasts)
               0 o.Lv.Runner.processes) );
        ( "timeouts_expired",
          O.Json.Int
            (Array.fold_left
               (fun a p -> a + p.Lv.Runner.timeouts_expired)
               0 o.Lv.Runner.processes) );
        ( "timeout_curve_s",
          O.Json.List (List.map (fun v -> O.Json.Float v) o.Lv.Runner.timeout_curve) );
        ( "safety",
          match o.Lv.Runner.safety with
          | [] -> O.Json.String "ok"
          | vs ->
            O.Json.List
              (List.map
                 (fun v -> O.Json.String (Format.asprintf "%a" G.Checker.pp_violation v))
                 vs) );
      ]
  in
  let run algo n net_spec timeout_init timeout_max round_budget wall_budget seed
      failures sweep_drop out metrics json_trace =
    let where = "anonc live" in
    if n < 1 then
      G.Config_error.fail ~where (Printf.sprintf "n must be >= 1 (got %d)" n);
    if failures < 0 || failures >= n then
      G.Config_error.fail ~where
        (Printf.sprintf "failures must be in [0, n) (got %d of n=%d)" failures n);
    let faults = Ch.Netfault.of_string net_spec in
    let inputs = List.init n (fun i -> (i mod 4) + 1) in
    let crash =
      if failures = 0 then G.Crash.none ~n
      else
        G.Crash.random ~n ~failures
          ~max_round:(max 1 (min round_budget 6))
          (Anon_kernel.Rng.make (seed + 7919))
    in
    let algo_mod : (module G.Intf.ALGORITHM) =
      match algo with
      | L_es -> (module C.Es_consensus)
      | L_ess -> (module C.Ess_consensus)
      | L_es_unguarded -> (module C.Es_consensus.No_written_old_guard)
      | L_floodset ->
        (module Anon_baselines.Floodset.Make (struct
          let failures_bound = max failures 1
        end))
    in
    let module A = (val algo_mod : G.Intf.ALGORITHM) in
    let module LR = Lv.Runner.Make (A) in
    let config_for faults =
      Lv.Runner.default_config ~timeout_init_s:timeout_init
        ~timeout_max_s:timeout_max ~round_budget ~wall_budget_s:wall_budget ~seed
        ~faults ~inputs ~crash ()
    in
    let drops = match sweep_drop with [] -> [ None ] | ds -> List.map Option.some ds in
    let runs =
      with_recorder ~metrics ~json_trace (fun recorder ->
          List.map
            (fun drop_override ->
              let faults =
                match drop_override with
                | None -> faults
                | Some d ->
                  Ch.Netfault.validate ~where
                    { faults with Ch.Netfault.drop = d }
              in
              let config = config_for faults in
              let o = LR.run ~recorder ~clock:Lv.Runner.Wall config in
              render_report ppf ~algo:(live_algo_name algo) ~n ~faults ~config o;
              (faults, config, o))
            drops)
    in
    (match out with
    | None -> ()
    | Some path ->
      let doc =
        match
          List.map
            (fun (faults, config, o) ->
              report_json ~algo:(live_algo_name algo) ~n ~faults ~config o)
            runs
        with
        | [ r ] -> r
        | rs -> O.Json.List rs
      in
      write_json ~cmd:"live" path doc;
      Format.fprintf ppf "live report written to %s@." path);
    if
      List.exists
        (fun (_, _, (o : Lv.Runner.outcome)) -> o.Lv.Runner.safety <> [])
        runs
    then begin
      Format.eprintf "anonc live: safety violation@.";
      exit 1
    end
  in
  let algo_arg =
    let of_string =
      Arg.enum
        [
          ("es", L_es);
          ("ess", L_ess);
          ("floodset", L_floodset);
          ("es-unguarded", L_es_unguarded);
        ]
    in
    Arg.(value & opt of_string L_es
         & info [ "algo" ] ~docv:"ALGO" ~doc:"es, ess, floodset or es-unguarded.")
  in
  let net_arg =
    Arg.(value & opt string "none"
         & info [ "net" ] ~docv:"SPEC"
             ~doc:"Wire faults: comma-separated drop:P, dup:P, delay:P[:MAX_S], \
                   sever:NAME clauses (e.g. drop:0.1,dup:0.05,delay:0.2:0.005); \
                   none for a clean wire.")
  in
  let timeout_init_arg =
    Arg.(value & opt float 0.02
         & info [ "timeout-init" ] ~docv:"S" ~doc:"Initial round timeout, seconds.")
  in
  let timeout_max_arg =
    Arg.(value & opt float 1.0
         & info [ "timeout-max" ] ~docv:"S"
             ~doc:"Timeout backoff cap, seconds (must be >= timeout-init).")
  in
  let round_budget_arg =
    Arg.(value & opt int 200
         & info [ "round-budget" ] ~docv:"ROUNDS" ~doc:"Max rounds per process.")
  in
  let wall_budget_arg =
    Arg.(value & opt float 30.0
         & info [ "wall-budget" ] ~docv:"S"
             ~doc:"Wall-clock ceiling; an over-budget run reports undecided \
                   with diagnostics instead of hanging.")
  in
  let sweep_drop_arg =
    Arg.(value & opt (list float) []
         & info [ "sweep-drop" ] ~docv:"P1,P2,..."
             ~doc:"Run one report per drop probability (overriding --net's \
                   drop) — the T17 timeout-vs-decide-round sweep.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the anon-live/1 report JSON to $(docv) (a list when \
                   sweeping).")
  in
  Cmd.v
    (Cmd.info "live" ~exits
       ~doc:"Run consensus on the live async backend: one event loop on the \
             wall clock, every process at its own pace, wire-level fault \
             injection, and adaptive timeouts standing in for GST. Exits 1 \
             on a safety violation, 2 on invalid parameters; an over-budget \
             run reports undecided and exits 0.")
    Term.(
      const run $ algo_arg $ n_arg $ net_arg $ timeout_init_arg $ timeout_max_arg
      $ round_budget_arg $ wall_budget_arg $ seed_arg $ failures_arg
      $ sweep_drop_arg $ out_arg $ metrics_arg $ json_trace_arg)

(* --- experiment / list ---------------------------------------------------- *)

let experiment_cmd =
  let run ids csv =
    let experiments =
      match ids with
      | [] -> H.Registry.all
      | ids ->
        List.map
          (fun id ->
            match H.Registry.find id with
            | Some e -> e
            | None ->
              G.Config_error.fail ~where:"anonc experiment"
                (Printf.sprintf "unknown experiment %s (see anonc list)" id))
          ids
    in
    List.iter
      (fun (e : H.Registry.experiment) ->
        let table = e.build () in
        if csv then print_string (H.Table.to_csv table)
        else H.Table.render ppf table)
      experiments
  in
  let ids_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.") in
  Cmd.v (Cmd.info "experiment" ~exits ~doc:"Regenerate experiment tables.")
    Term.(const run $ ids_arg $ csv_arg)

let list_cmd =
  let run json =
    if json then
      print_endline
        (O.Json.to_string
           (O.Json.List
              (List.map
                 (fun (e : H.Registry.experiment) ->
                   O.Json.Obj
                     [ ("id", O.Json.String e.id); ("title", O.Json.String e.title) ])
                 H.Registry.all)))
    else
      List.iter (fun (e : H.Registry.experiment) -> print_endline e.id) H.Registry.all
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit ids and titles as JSON.")
  in
  Cmd.v (Cmd.info "list" ~exits ~doc:"List experiment ids.") Term.(const run $ json_arg)

let () =
  let info =
    Cmd.info "anonc" ~exits ~version:"1.0.0"
      ~doc:"Fault-tolerant consensus in unknown and anonymous networks (ICDCS'09 reproduction)."
  in
  let group =
    Cmd.group info
      [ run_cmd; weakset_cmd; emulate_cmd; skew_cmd; sigma_cmd; metrics_cmd;
        fuzz_cmd; mc_cmd; load_cmd; live_cmd; experiment_cmd; list_cmd ]
  in
  match Cmd.eval ~catch:false group with
  | code when code = Cmd.Exit.cli_error -> exit 2
  | code -> exit code
  | exception G.Config_error.Invalid_config e ->
    Format.eprintf "anonc: invalid configuration — %s@." (G.Config_error.to_string e);
    exit 2
