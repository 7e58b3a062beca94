module G = Anon_giraf
module C = Anon_consensus
module Ch = Anon_chaos
module R = Anon_obs.Recorder
module M = Anon_obs.Metrics

type algo = Es | Ess | Ms_weakset | Es_unguarded

let algo_name = function
  | Es -> "es"
  | Ess -> "ess"
  | Ms_weakset -> "ms-weakset"
  | Es_unguarded -> "es-unguarded"

type search = Bfs | Dfs

type config = {
  algo : algo;
  n : int;
  env : G.Env.t;
  rounds : int;
  crashes : int;
  churn : int;
  max_delay : int;
  search : search;
  armed : bool;
  jobs : int option;
  seed : int;
  ops_per_client : int;
}

type verdict = Violation | Verified | Bounded

let verdict_name = function
  | Violation -> "violation"
  | Verified -> "verified"
  | Bounded -> "bounded"

type report = {
  config : config;
  schedules : int;
  stats : Explore.stats;
  violation : (G.Crash.event list * G.Churn.event list * Explore.witness) option;
  non_deciding : (G.Crash.event list * G.Churn.event list * Explore.bounded) option;
  witness : Ch.Fuzz.finding option;
  verdict : verdict;
}

let reduction_factor r =
  if r.stats.Explore.canonical_states = 0 then 1.
  else float_of_int r.stats.Explore.raw_states /. float_of_int r.stats.Explore.canonical_states

(* --- crash-schedule enumeration --------------------------------------------- *)

(* k-subsets of [0..n), lexicographic. *)
let rec combos k lo n =
  if k = 0 then [ [] ]
  else if lo >= n then []
  else
    List.map (fun rest -> lo :: rest) (combos (k - 1) (lo + 1) n) @ combos k (lo + 1) n

(* Every subset of at most [budget] of the [n] processes, smallest first,
   each process taking one of its [options]. *)
let schedules ~n ~budget options =
  List.concat_map
    (fun k ->
      List.concat_map (fun pids -> G.Plan_enum.product (List.map options pids)) (combos k 0 n))
    (List.init (budget + 1) Fun.id)

(* Churn schedules: each churner leaves at a round in [1..rounds] and
   either rejoins in (leave, rounds] or not at all (within the explored
   depth, "rejoins past the bound" and "never rejoins" coincide). Crossed
   with the crash schedules under a pid-disjointness filter (a crasher
   cannot churn, and vice versa). *)
let churn_schedules ~n ~budget ~rounds =
  let upto = List.init rounds (fun i -> i + 1) in
  schedules ~n ~budget (fun pid ->
      List.concat_map
        (fun leave ->
          { G.Churn.pid; leave; rejoin = None }
          :: List.filter_map
               (fun r ->
                 if r > leave then Some { G.Churn.pid; leave; rejoin = Some r } else None)
               upto)
        upto)

let crash_schedules ~n ~budget ~rounds =
  schedules ~n ~budget (fun pid ->
      List.init rounds (fun r ->
          { G.Crash.pid; round = r + 1; broadcast = G.Crash.Broadcast_subset }))

(* --- per-schedule system ----------------------------------------------------- *)

let system config ~inputs ~crash ~churn =
  let cspec model =
    Consensus_sys.make model
      {
        Consensus_sys.inputs;
        crash;
        churn;
        env = config.env;
        max_delay = config.max_delay;
        armed = config.armed;
      }
  in
  match config.algo with
  | Es -> cspec (module C.Es_consensus)
  | Es_unguarded -> cspec (module C.Es_consensus.No_written_old_guard)
  | Ess -> cspec (module C.Ess_consensus)
  | Ms_weakset ->
    Ws_sys.make
      {
        Ws_sys.n = config.n;
        crash;
        env = config.env;
        max_delay = config.max_delay;
        armed = config.armed;
        ops_per_client = config.ops_per_client;
      }

(* A crash or churn schedule: [pN@rK] items separated by ", ", or "none". *)
let pp_schedule pp_event ppf = function
  | [] -> Format.fprintf ppf "none"
  | evs ->
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_event ppf evs

let pp_events =
  pp_schedule (fun ppf (ev : G.Crash.event) -> Format.fprintf ppf "p%d@r%d" ev.pid ev.round)

let pp_churn_events =
  pp_schedule (fun ppf (ev : G.Churn.event) ->
      Format.fprintf ppf "p%d@r%d%s" ev.pid ev.leave
        (match ev.rejoin with Some r -> Printf.sprintf "-r%d" r | None -> ""))

(* --- the run ------------------------------------------------------------------ *)

let run ?(recorder = R.off) ?progress config =
  let fail what = G.Config_error.fail ~where:"Mc.run" what in
  if config.n < 1 then fail (Printf.sprintf "n must be >= 1 (got %d)" config.n);
  if config.rounds < 1 then
    fail (Printf.sprintf "rounds must be >= 1 (got %d)" config.rounds);
  if config.crashes < 0 || config.crashes > config.n then
    fail
      (Printf.sprintf "crashes must be in [0, n] (got %d, n = %d)" config.crashes
         config.n);
  if config.churn < 0 || config.churn > config.n then
    fail
      (Printf.sprintf "churn must be in [0, n] (got %d, n = %d)" config.churn
         config.n);
  if config.churn > 0 && config.algo = Ms_weakset then
    fail "churn is not supported for ms-weakset";
  G.Env.validate ~where:"Mc.run" config.env;
  (* A delay bound of 0 would drop every late delivery and explore the
     partially synchronous environments as if synchronous; [--env sync]
     says that explicitly. *)
  if config.max_delay < 1 then
    fail (Printf.sprintf "max_delay must be >= 1 (got %d)" config.max_delay);
  if config.ops_per_client < 0 then
    fail
      (Printf.sprintf "ops_per_client must be >= 0 (got %d)" config.ops_per_client);
  (match config.jobs with
  | None | Some 1 -> ()
  | Some j -> fail (Printf.sprintf "jobs must be 1 (got %d): the search runs on one domain" j));
  (* The fuzzer's derivation, so an emitted witness (which carries only
     the seed) replays against identical proposals. *)
  let inputs = Ch.Scenario.inputs ~n:config.n ~seed:config.seed in
  let explore sysmod =
    match config.search with
    | Bfs -> Explore.bfs ~recorder ?progress ~depth:config.rounds sysmod
    | Dfs -> Explore.dfs ~recorder ?progress ~depth:config.rounds sysmod
  in
  let stats = ref Explore.zero_stats in
  let violation = ref None in
  let non_deciding = ref None in
  let schedules = ref 0 in
  let combined_schedules =
    let churn_scheds =
      churn_schedules ~n:config.n ~budget:config.churn ~rounds:config.rounds
    in
    List.concat_map
      (fun crash_events ->
        let crash_pids =
          List.map (fun (ev : G.Crash.event) -> ev.pid) crash_events
        in
        List.filter_map
          (fun churn_events ->
            if
              List.exists
                (fun (ev : G.Churn.event) -> List.mem ev.pid crash_pids)
                churn_events
            then None
            else Some (crash_events, churn_events))
          churn_scheds)
      (crash_schedules ~n:config.n ~budget:config.crashes ~rounds:config.rounds)
  in
  List.iter
    (fun (events, churn_events) ->
      if !violation = None then begin
        incr schedules;
        Option.iter
          (fun ppf ->
            Format.fprintf ppf "mc: schedule %d (crashes: %a; churn: %a)@." !schedules
              pp_events events pp_churn_events churn_events)
          progress;
        let crash = G.Crash.of_events ~n:config.n events in
        let churn = G.Churn.of_events ~n:config.n churn_events in
        let r = explore (system config ~inputs ~crash ~churn) in
        stats := Explore.add_stats !stats r.Explore.stats;
        (match r.Explore.violation with
        | Some w -> violation := Some (events, churn_events, w)
        | None -> ());
        match r.Explore.non_deciding with
        | Some b when !non_deciding = None ->
          non_deciding := Some (events, churn_events, b)
        | Some _ | None -> ()
      end)
    combined_schedules;
  let scen_algo =
    match config.algo with
    | Es -> Some Ch.Scenario.Es
    | Ess -> Some Ch.Scenario.Ess
    | Ms_weakset -> Some Ch.Scenario.Weak_set
    | Es_unguarded -> None
  in
  (* A witness is replayed as it is found, so [fuzz --replay] matches it
     by construction. The round past the prefix falls back to fully
     timely: enough for the compute in which the violation (or the
     blocked progress) shows. The replay shares the sink only. *)
  let witness =
    let recorder = R.create ~metrics:M.disabled ~sink:(R.sink recorder) () in
    let build crashes churn plans =
      Option.map
        (fun algo ->
          let case =
            {
              Ch.Scenario.algo;
              n = config.n;
              gst = Option.value ~default:0 (G.Env.gst config.env);
              rotation = G.Adversary.Round_robin;
              noise = 0.;
              horizon = List.length plans + 1;
              seed = config.seed;
              crashes;
              churn;
              env = None;
              ops_per_client = config.ops_per_client;
              faults = Ch.Fault.none;
              schedule = Some { Ch.Scenario.sched_env = config.env; plans };
            }
          in
          let violations = Ch.Fuzz.run_case ~recorder case in
          { Ch.Fuzz.original = case; original_violations = violations; case; violations;
            explored = 0 })
        scen_algo
    in
    match (!violation, !non_deciding) with
    | Some (events, churn_events, w), _ -> build events churn_events w.Explore.w_plans
    | None, Some (events, churn_events, b) -> build events churn_events b.Explore.b_plans
    | None, None -> None
  in
  let verdict =
    if !violation <> None then Violation
    else if !stats.Explore.bound_branches > 0 then Bounded
    else Verified
  in
  let report =
    {
      config;
      schedules = !schedules;
      stats = !stats;
      violation = !violation;
      non_deciding = !non_deciding;
      witness;
      verdict;
    }
  in
  if R.active recorder then begin
    M.incr ~by:report.schedules (R.counter recorder "mc.schedules");
    M.set_gauge (R.gauge recorder "mc.reduction_factor") (reduction_factor report);
    R.flush recorder
  end;
  report

(* --- rendering ---------------------------------------------------------------- *)

let pp_report ppf r =
  let s = r.stats in
  Format.fprintf ppf "@[<v>mc %s: n=%d env=%a rounds<=%d crashes<=%d churn<=%d %s%s@,"
    (algo_name r.config.algo) r.config.n G.Env.pp r.config.env r.config.rounds
    r.config.crashes r.config.churn
    (match r.config.search with Bfs -> "bfs" | Dfs -> "dfs")
    (if r.config.armed then " (armed)" else "");
  Format.fprintf ppf
    "schedules=%d states: raw=%d canonical=%d dedup=%d (reduction %.2fx)@,"
    r.schedules s.Explore.raw_states s.Explore.canonical_states
    s.Explore.dedup_hits (reduction_factor r);
  Format.fprintf ppf
    "branches: terminal=%d at-bound=%d (blocked %d); expanded=%d peak-frontier=%d@,"
    s.Explore.terminal_branches s.Explore.bound_branches s.Explore.pending_at_bound
    s.Explore.expanded s.Explore.frontier_peak;
  (match r.violation with
  | Some (events, churn_events, w) ->
    Format.fprintf ppf "violation at depth %d (crashes: %a; churn: %a):@,"
      (List.length w.Explore.w_plans) pp_events events pp_churn_events
      churn_events;
    List.iter
      (fun v -> Format.fprintf ppf "  %a@," G.Checker.pp_violation v)
      w.Explore.w_violations
  | None -> ());
  (match r.non_deciding with
  | Some (events, churn_events, b) when r.violation = None ->
    Format.fprintf ppf
      "non-deciding witness at depth %d (crashes: %a; churn: %a; blocked: %s)@,"
      (List.length b.Explore.b_plans) pp_events events pp_churn_events
      churn_events
      (String.concat "," (List.map string_of_int b.Explore.b_blocked))
  | Some _ | None -> ());
  (match r.witness with
  | Some w ->
    Format.fprintf ppf "witness replay: %s@,"
      (if w.Ch.Fuzz.violations <> [] then "confirmed by checker"
       else "no checker violation (bounded witness)")
  | None -> ());
  Format.fprintf ppf "verdict: %s@]" (verdict_name r.verdict)
