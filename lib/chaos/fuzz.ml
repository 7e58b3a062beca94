open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module Json = Anon_obs.Json

module Es_runner = G.Runner.Make (C.Es_consensus)
module Ess_runner = G.Runner.Make (C.Ess_consensus)
module Ws_runner = G.Runner.Ws.Make (C.Weak_set_ms)

let violation_strings vs =
  List.map (fun v -> Format.asprintf "%a" G.Checker.pp_violation v) vs

(* --- one case, end to end -------------------------------------------------- *)

let run_consensus ?recorder (case : Scenario.t) runner =
  let inputs = Scenario.inputs ~n:case.n ~seed:case.seed in
  let adversary = Scenario.adversary case in
  (* Environments that never promise a deciding schedule get no
     termination check; everything the fuzzer samples today does. *)
  let expect_termination =
    match G.Adversary.env adversary with
    | G.Env.Async | G.Env.Dynamic { rooted = false; _ } -> false
    | G.Env.Sync | G.Env.Ms | G.Env.Es _ | G.Env.Ess _ | G.Env.Dynamic _ -> true
  in
  let config =
    G.Runner.default_config ~horizon:case.horizon ~seed:case.seed
      ~churn:(Scenario.churn case) ~inputs ~crash:(Scenario.crash case) adversary
  in
  let out = runner ?recorder config in
  G.Checker.check_env out.G.Runner.trace
  @ G.Checker.check_consensus ~expect_termination out.G.Runner.trace

let run_weak_set ?recorder (case : Scenario.t) =
  let crash = Scenario.crash case in
  let workload =
    match case.schedule with
    | Some _ ->
      (* Explicit-schedule (model-checker) cases pin the workload too, so
         the replay is deterministic end to end. *)
      Scenario.mc_workload ~n:case.n ~ops_per_client:case.ops_per_client
    | None ->
      let rng = Rng.make case.seed in
      G.Runner.Ws.random_workload ~n:case.n ~ops_per_client:case.ops_per_client
        ~max_start:(max 1 (case.horizon / 2)) ~value_range:1000 rng
  in
  let churn = Scenario.churn case in
  let config =
    {
      G.Runner.Ws.n = case.n;
      crash;
      churn;
      adversary = Scenario.adversary case;
      horizon = case.horizon;
      seed = case.seed;
    }
  in
  let out = Ws_runner.run ?recorder config ~workload in
  (* Correct stayers only: a rejoiner restarts on an empty replica, so its
     gets legitimately miss adds that completed before it was back. *)
  let correct =
    List.filter (G.Churn.is_stayer churn) (G.Crash.correct crash)
  in
  G.Checker.check_env out.trace @ G.Checker.check_weak_set ~correct out.ops

let run_register (case : Scenario.t) =
  let rng = Rng.make case.seed in
  let workload =
    List.init case.n (fun pid ->
        let ops =
          List.init case.ops_per_client (fun i ->
              let start = Rng.int_in rng 1 60 in
              if (i + pid) mod 2 = 0 then
                (start, C.Register_of_weak_set.Write ((100 * pid) + i))
              else (start, C.Register_of_weak_set.Read))
          |> List.sort compare
        in
        (pid, ops))
  in
  let out =
    C.Register_of_weak_set.run ~crash:(Scenario.crash case)
      ~adversary:(Scenario.adversary case) ~horizon:case.horizon ~seed:case.seed
      ~workload
  in
  G.Checker.check_env out.trace
  @ G.Checker.check_weak_set ~correct:(List.init case.n Fun.id) out.ws_ops
  @ C.Register_of_weak_set.check_regular out.records

(* Every case runs in its own kernel interner scope, so a verdict is a
   pure function of the case, independent of what the campaign (or the
   shrinker) ran before it. That is what makes repro files replayable
   from any process state. *)
let run_case ?recorder (case : Scenario.t) =
  Anon_exec.Pool.isolate
    (fun (case : Scenario.t) ->
      match case.algo with
      | Scenario.Es ->
        run_consensus ?recorder case (fun ?recorder c -> Es_runner.run ?recorder c)
      | Scenario.Ess ->
        run_consensus ?recorder case (fun ?recorder c ->
            Ess_runner.run ?recorder c)
      | Scenario.Weak_set -> run_weak_set ?recorder case
      | Scenario.Register -> run_register case)
    case

(* --- shrinking -------------------------------------------------------------- *)

let tag = function
  | G.Checker.Agreement_violation _ -> "agreement"
  | G.Checker.Validity_violation _ -> "validity"
  | G.Checker.Termination_violation _ -> "termination"
  | G.Checker.No_source _ -> "no_source"
  | G.Checker.Source_not_timely _ -> "source_not_timely"
  | G.Checker.Unstable_source _ -> "unstable_source"
  | G.Checker.No_root _ -> "no_root"
  | G.Checker.Stability_violation _ -> "stability"
  | G.Checker.Weak_set_lost_add _ -> "ws_lost_add"
  | G.Checker.Weak_set_phantom_value _ -> "ws_phantom"
  | G.Checker.Register_stale_read _ -> "register_stale"

let tags vs = List.sort_uniq compare (List.map tag vs)

let drop_last l = match List.rev l with [] -> [] | _ :: rest -> List.rev rest

let take k l = List.filteri (fun i _ -> i < k) l

(* Strictly-smaller neighbours of a case, most aggressive first. *)
let candidates (case : Scenario.t) =
  let smaller_n =
    if case.n <= 2 then []
    else
      let n = case.n - 1 in
      [
        {
          case with
          n;
          crashes = List.filter (fun (ev : G.Crash.event) -> ev.pid < n) case.crashes;
          churn = List.filter (fun (ev : G.Churn.event) -> ev.pid < n) case.churn;
        };
      ]
  in
  let shorter =
    let floor = case.gst + 4 in
    if case.horizon <= floor then []
    else [ { case with horizon = max floor (case.horizon / 2) } ]
  in
  let fewer_crashes =
    match case.crashes with
    | [] -> []
    | evs ->
      let half = take (List.length evs / 2) evs in
      List.sort_uniq compare [ { case with crashes = half }; { case with crashes = drop_last evs } ]
  in
  let fewer_churn =
    match case.churn with
    | [] -> []
    | evs -> [ { case with churn = drop_last evs } ]
  in
  let fewer_ops =
    match case.algo with
    | Scenario.Weak_set | Scenario.Register when case.ops_per_client > 1 ->
      [ { case with ops_per_client = case.ops_per_client - 1 } ]
    | _ -> []
  in
  let weaker_faults =
    let f = case.faults in
    List.filter_map Fun.id
      [
        (if f.duplicate > 0. then
           Some { case with faults = { f with duplicate = 0. } }
         else None);
        (if f.extra_delay > 0. then
           Some { case with faults = { f with extra_delay = 0. } }
         else None);
        (if f.reorder > 0. then Some { case with faults = { f with reorder = 0. } }
         else None);
        (if f.max_extra > 1 then Some { case with faults = { f with max_extra = 1 } }
         else None);
      ]
  in
  smaller_n @ shorter @ fewer_crashes @ fewer_churn @ fewer_ops @ weaker_faults

let shrink case vs =
  let orig_tags = tags vs in
  let explored = ref 0 in
  let still_fails c =
    incr explored;
    match run_case c with
    | [] -> None
    | vs' when List.exists (fun t -> List.mem t orig_tags) (tags vs') -> Some (c, vs')
    | _ -> None
  in
  let rec go case vs budget =
    if budget = 0 then (case, vs)
    else
      match List.find_map still_fails (candidates case) with
      | None -> (case, vs)
      | Some (c, vs') -> go c vs' (budget - 1)
  in
  let case, vs = go case vs 60 in
  (case, vs, !explored)

(* --- campaigns -------------------------------------------------------------- *)

type finding = {
  original : Scenario.t;
  original_violations : G.Checker.violation list;
  case : Scenario.t;
  violations : G.Checker.violation list;
  explored : int;
}

type report = { runs_done : int; finding : finding option }

let campaign ?algo ?(inadmissible = false) ?(dynamic = false) ?(churn = false)
    ~runs ~seed () =
  if runs < 0 then
    G.Config_error.fail ~where:"Fuzz.campaign"
      (Printf.sprintf "runs must be >= 0 (got %d)" runs);
  let rng = Rng.make seed in
  let rec go i =
    if i >= runs then { runs_done = runs; finding = None }
    else
      let case = Scenario.sample ?algo ~inadmissible ~dynamic ~churn rng in
      match run_case case with
      | [] -> go (i + 1)
      | vs ->
        let shrunk, svs, explored = shrink case vs in
        {
          runs_done = i + 1;
          finding =
            Some
              {
                original = case;
                original_violations = vs;
                case = shrunk;
                violations = svs;
                explored;
              };
        }
  in
  go 0

(* --- repro files ------------------------------------------------------------ *)

let repro_json f =
  Json.Obj
    [
      ("case", Scenario.to_json f.case);
      ("violations", Json.List (List.map (fun s -> Json.String s) (violation_strings f.violations)));
      ("original", Scenario.to_json f.original);
      ( "original_violations",
        Json.List
          (List.map (fun s -> Json.String s) (violation_strings f.original_violations))
      );
      ("explored", Json.Int f.explored);
    ]

type replay = {
  case : Scenario.t;
  expected : string list;
  actual : G.Checker.violation list;
  matches : bool;
}

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let replay_json j =
  let* case =
    match Json.member "case" j with
    | Some c -> Scenario.of_json c
    | None -> Error "repro: missing field case"
  in
  let* expected =
    match Json.member "violations" j with
    | Some (Json.List l) ->
      let strs = List.filter_map Json.to_str l in
      if List.length strs = List.length l then Ok strs
      else Error "repro: non-string violation entry"
    | _ -> Error "repro: missing list field violations"
  in
  let actual = run_case case in
  Ok { case; expected; actual; matches = violation_strings actual = expected }

let replay ~path =
  let* contents =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error msg -> Error msg
  in
  let* j = Json.of_string contents in
  replay_json j
