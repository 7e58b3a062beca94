open Anon_kernel
module Adv = Anon_giraf.Adversary
module Crash = Anon_giraf.Crash
module Churn = Anon_giraf.Churn
module Env = Anon_giraf.Env
module Json = Anon_obs.Json

type algo = Es | Ess | Weak_set | Register

let algo_name = function
  | Es -> "es"
  | Ess -> "ess"
  | Weak_set -> "weak_set"
  | Register -> "register"

let all_algos = [ Es; Ess; Weak_set; Register ]

type schedule = { sched_env : Env.t; plans : Adv.plan list }

type t = {
  algo : algo;
  n : int;
  gst : int;
  rotation : Adv.rotation;
  noise : float;
  horizon : int;
  seed : int;
  crashes : Crash.event list;
  churn : Churn.event list;
  env : Env.t option;
  ops_per_client : int;
  faults : Fault.spec;
  schedule : schedule option;
}

(* Horizons generous enough for the liveness theorems (Thm. 1/2/3) to have
   fired long before the run is cut off, leaving slack for fault-injected
   delays on non-obligated links. A dynamic environment only promises full
   synchrony on the healed tail of each window, so progress slows by a
   factor of the window length. *)
let horizon_for ?env algo ~n ~gst =
  let base =
    match algo with
    | Es -> gst + (6 * n) + 40
    | Ess -> gst + (20 * n) + 80
    | Weak_set -> 40 * (n + 2)
    | Register -> 300 + (40 * n)
  in
  match env with
  | Some (Env.Dynamic { stability; _ }) -> stability * base
  | Some _ | None -> base

let sample ?algo ?(inadmissible = false) ?(dynamic = false) ?(churn = false) rng =
  let algo = match algo with Some a -> a | None -> Rng.pick rng all_algos in
  let n = if inadmissible then Rng.int_in rng 3 6 else Rng.int_in rng 2 6 in
  let gst = Rng.int_in rng 3 12 in
  let rotation = if Rng.bool rng then Adv.Round_robin else Adv.Random_source in
  let noise = Rng.pick rng [ 0.0; 0.1; 0.3 ] in
  let seed = Rng.int_in rng 1 1_000_000 in
  let max_failures =
    (* Keep >= 2 correct processes when forcing inadmissible schedules
       (source alternation needs two correct senders); the register checker
       assumes crash-free clients (see T6), so keep those runs clean. *)
    match algo with
    | Register -> 0
    | _ -> if inadmissible then n - 2 else n - 1
  in
  let crashes =
    if max_failures <= 0 then []
    else
      let failures = Rng.int_in rng 0 max_failures in
      if failures = 0 then []
      else if Rng.bool rng then
        Fault.burst_crashes ~n ~failures ~at:(Rng.int_in rng 1 8)
          ~width:(Rng.int_in rng 0 3) rng
      else
        Fault.cascade_crashes ~n ~failures ~start:(Rng.int_in rng 1 6)
          ~gap:(Rng.int_in rng 1 5) rng
  in
  (* Dynamic-graph override: only consensus and weak-set cases take it
     (the register stack layers on the MS emulation), and the admissible
     pool keeps stability >= 2 and a covering root — a rotating-root
     stability-1 regime legitimately never decides (that is the model
     checker's counterexample, not a fuzzing bug). *)
  let env =
    if (not dynamic) || algo = Register then None
    else Some (Env.Dynamic { stability = Rng.int_in rng 2 4; rooted = true })
  in
  (* Churn: disjoint from crashers, with at least one correct stayer.
     For the consensus algorithms only permanent leaves are sampled — a
     leaver is observationally a silent crash, which Alg. 2/3 tolerate,
     whereas a rejoiner re-initializes from its original input and can
     re-inject a value that never circulated before a stayer decided,
     legitimately splitting agreement (see DESIGN.md: the committed
     model-checker counterexample pins this down). The weak-set service is
     join-tolerant — its axioms are monotone in the set contents — so
     rejoiners are admissible there. *)
  let churn_events =
    if (not churn) || algo = Register then []
    else
      let crashed = List.map (fun (ev : Crash.event) -> ev.pid) crashes in
      let free =
        List.filter (fun p -> not (List.mem p crashed)) (List.init n Fun.id)
      in
      match free with
      | [] | [ _ ] -> []
      | free ->
        let count = Rng.int_in rng 1 (min 2 (List.length free - 1)) in
        let pids = List.filteri (fun i _ -> i < count) (Rng.shuffle rng free) in
        let may_rejoin = algo = Weak_set in
        List.map
          (fun pid ->
            let leave = Rng.int_in rng 2 (max 2 (gst - 1)) in
            let rejoin =
              if may_rejoin && Rng.chance rng 0.7 then
                Some (min gst (leave + Rng.int_in rng 1 2))
              else None
            in
            { Churn.pid; leave; rejoin })
          pids
  in
  let mode =
    if not inadmissible then None
    else
      match env with
      | Some (Env.Dynamic _) ->
        Some
          (if Rng.bool rng then Fault.Root_starvation { from_round = 2 }
           else Fault.Stability_break { from_round = 2 })
      | Some _ | None -> (
        match algo with
        | Ess when Rng.bool rng -> Some (Fault.Unstable_source { from_round = 2 })
        | _ -> Some (Fault.Drop_obligated { from_round = 2 }))
  in
  let faults = Fault.sample ~inadmissible:mode rng in
  {
    algo;
    n;
    gst;
    rotation;
    noise;
    horizon = horizon_for ?env algo ~n ~gst;
    seed;
    crashes;
    churn = churn_events;
    env;
    ops_per_client = Rng.int_in rng 2 6;
    faults;
    schedule = None;
  }

let adversary t =
  let base =
    match t.schedule with
    | Some { sched_env; plans } ->
      Adv.of_schedule ~name:("mc-" ^ algo_name t.algo) ~env:sched_env plans
    | None -> (
      match t.env with
      | Some (Env.Dynamic { stability; rooted }) ->
        Adv.dynamic ~stability ~rooted ~rotation:t.rotation ~noise:t.noise ()
      | Some _ | None -> (
        match t.algo with
        | Es -> Adv.es ~gst:t.gst ~noise:t.noise ()
        | Ess -> Adv.ess ~gst:t.gst ~rotation:t.rotation ~noise:t.noise ()
        | Weak_set | Register -> Adv.ms ~rotation:t.rotation ~noise:t.noise ()))
  in
  Fault.wrap t.faults base

let crash t = Crash.of_events ~n:t.n t.crashes
let churn t = Churn.of_events ~n:t.n t.churn

let inputs ~n ~seed = Rng.shuffle (Rng.make seed) (List.init n (fun i -> i + 1))

(* The deterministic workload explicit-schedule (model-checker) cases use:
   each client alternates adds of distinct values with gets, one op queued
   per round from round 1 on (the weak-set runner serializes them, one per
   round while no add is pending). *)
let mc_workload ~n ~ops_per_client =
  List.init n (fun pid ->
      ( pid,
        List.init ops_per_client (fun i ->
            ( i + 1,
              if i mod 2 = 0 then
                Anon_giraf.Runner.Ws.Do_add ((100 * (pid + 1)) + i)
              else Anon_giraf.Runner.Ws.Do_get )) ))

let pp ppf t =
  Format.fprintf ppf "%s n=%d gst=%d noise=%.2f horizon=%d seed=%d crashes=%d%s%s%s"
    (algo_name t.algo) t.n t.gst t.noise t.horizon t.seed (List.length t.crashes)
    (match t.env with
    | None -> ""
    | Some e -> Format.asprintf " env=%a" Env.pp e)
    (if t.churn = [] then ""
     else Printf.sprintf " churn=%d" (List.length t.churn))
    (match t.faults.inadmissible with
    | None -> ""
    | Some (Fault.Drop_obligated _) -> " [drop-obligated]"
    | Some (Fault.Unstable_source _) -> " [unstable-source]"
    | Some (Fault.Root_starvation _) -> " [root-starvation]"
    | Some (Fault.Stability_break _) -> " [stability-break]")

(* --- JSON ------------------------------------------------------------------ *)

let json_of_rotation = function
  | Adv.Round_robin -> Json.String "round_robin"
  | Adv.Random_source -> Json.String "random"
  | Adv.Pinned p -> Json.Obj [ ("pinned", Json.Int p) ]

let rotation_of_json = function
  | Json.String "round_robin" -> Ok Adv.Round_robin
  | Json.String "random" -> Ok Adv.Random_source
  | Json.Obj _ as j -> (
    match Json.member "pinned" j |> Option.map Json.to_int |> Option.join with
    | Some p -> Ok (Adv.Pinned p)
    | None -> Error "rotation: bad pinned object")
  | _ -> Error "rotation: expected round_robin/random/pinned"

let json_of_broadcast = function
  | Crash.Silent -> "silent"
  | Crash.Broadcast_all -> "all"
  | Crash.Broadcast_subset -> "subset"

let broadcast_of_json = function
  | "silent" -> Ok Crash.Silent
  | "all" -> Ok Crash.Broadcast_all
  | "subset" -> Ok Crash.Broadcast_subset
  | s -> Error ("crash broadcast: unknown mode " ^ s)

let json_of_crash (ev : Crash.event) =
  Json.Obj
    [
      ("pid", Json.Int ev.pid);
      ("round", Json.Int ev.round);
      ("broadcast", Json.String (json_of_broadcast ev.broadcast));
    ]

let json_of_churn (ev : Churn.event) =
  Json.Obj
    [
      ("pid", Json.Int ev.pid);
      ("leave", Json.Int ev.leave);
      ("rejoin", match ev.rejoin with None -> Json.Null | Some r -> Json.Int r);
    ]

let json_of_inadmissible = function
  | Fault.Drop_obligated { from_round } ->
    Json.Obj
      [ ("kind", Json.String "drop_obligated"); ("from_round", Json.Int from_round) ]
  | Fault.Unstable_source { from_round } ->
    Json.Obj
      [ ("kind", Json.String "unstable_source"); ("from_round", Json.Int from_round) ]
  | Fault.Root_starvation { from_round } ->
    Json.Obj
      [ ("kind", Json.String "root_starvation"); ("from_round", Json.Int from_round) ]
  | Fault.Stability_break { from_round } ->
    Json.Obj
      [ ("kind", Json.String "stability_break"); ("from_round", Json.Int from_round) ]

let json_of_faults (f : Fault.spec) =
  Json.Obj
    [
      ("duplicate", Json.Float f.duplicate);
      ("extra_delay", Json.Float f.extra_delay);
      ("max_extra", Json.Int f.max_extra);
      ("reorder", Json.Float f.reorder);
      ( "inadmissible",
        match f.inadmissible with None -> Json.Null | Some m -> json_of_inadmissible m
      );
    ]

let json_of_env = function
  | Env.Sync -> Json.String "sync"
  | Env.Ms -> Json.String "ms"
  | Env.Async -> Json.String "async"
  | Env.Es { gst } -> Json.Obj [ ("es", Json.Int gst) ]
  | Env.Ess { gst } -> Json.Obj [ ("ess", Json.Int gst) ]
  | Env.Dynamic { stability; rooted } ->
    Json.Obj [ ("dynamic", Json.Int stability); ("rooted", Json.Bool rooted) ]

(* Decoded environments pass the runners' own check ([Env.validate]), so
   a repro with, say, a stability of 0 is refused here instead of
   crashing the adversary that would be built from it. *)
let env_of_json ~where j =
  let valid e =
    match Env.validate ~where e with
    | () -> Ok e
    | exception Anon_giraf.Config_error.Invalid_config err ->
      Error (Anon_giraf.Config_error.to_string err)
  in
  match j with
  | Json.String "sync" -> Ok Env.Sync
  | Json.String "ms" -> Ok Env.Ms
  | Json.String "async" -> Ok Env.Async
  | Json.Obj _ -> (
    match
      ( Json.member "es" j |> Option.map Json.to_int |> Option.join,
        Json.member "ess" j |> Option.map Json.to_int |> Option.join,
        Json.member "dynamic" j |> Option.map Json.to_int |> Option.join )
    with
    | Some gst, None, None -> valid (Env.Es { gst })
    | None, Some gst, None -> valid (Env.Ess { gst })
    | None, None, Some stability ->
      let rooted =
        match Json.member "rooted" j |> Option.map Json.to_bool |> Option.join with
        | Some b -> b
        | None -> true
      in
      valid (Env.Dynamic { stability; rooted })
    | _ -> Error (where ^ ": expected {es: gst}, {ess: gst} or {dynamic: stability}"))
  | _ -> Error (where ^ ": expected sync/ms/async/{es}/{ess}/{dynamic}")

let json_of_plan (p : Adv.plan) =
  Json.Obj
    [
      ("source", match p.source with None -> Json.Null | Some s -> Json.Int s);
      ( "deliveries",
        Json.List
          (List.map
             (fun (sender, ds) ->
               Json.Obj
                 [
                   ("from", Json.Int sender);
                   ( "links",
                     Json.List
                       (List.map
                          (fun (d : Adv.delivery) ->
                            Json.Obj
                              [
                                ("to", Json.Int d.receiver);
                                ("at", Json.Int d.arrival);
                              ])
                          ds) );
                 ])
             p.deliveries) );
    ]

let json_of_schedule s =
  Json.Obj
    [
      ("env", json_of_env s.sched_env);
      ("plans", Json.List (List.map json_of_plan s.plans));
    ]

(* Schema version: v1 (PR 2/4 repro files, no field) has neither dynamic
   environments nor churn; v2 adds the optional [env] override and the
   [churn] schedule. Decoding accepts both; encoding always writes v2. *)
let version = 2

let to_json t =
  Json.Obj
    ([
       ("v", Json.Int version);
       ("algo", Json.String (algo_name t.algo));
       ("n", Json.Int t.n);
       ("gst", Json.Int t.gst);
       ("rotation", json_of_rotation t.rotation);
       ("noise", Json.Float t.noise);
       ("horizon", Json.Int t.horizon);
       ("seed", Json.Int t.seed);
       ("crashes", Json.List (List.map json_of_crash t.crashes));
       ("ops_per_client", Json.Int t.ops_per_client);
       ("faults", json_of_faults t.faults);
     ]
    @ (match t.env with None -> [] | Some e -> [ ("env", json_of_env e) ])
    @ (if t.churn = [] then []
       else [ ("churn", Json.List (List.map json_of_churn t.churn)) ])
    @ match t.schedule with None -> [] | Some s -> [ ("schedule", json_of_schedule s) ])

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

let req_int j name =
  match Json.member name j |> Option.map Json.to_int |> Option.join with
  | Some n -> Ok n
  | None -> Error ("missing int field " ^ name)

let req_float j name =
  match Json.member name j with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int n) -> Ok (float_of_int n)
  | _ -> Error ("missing float field " ^ name)

let req_str j name =
  match Json.member name j |> Option.map Json.to_str |> Option.join with
  | Some s -> Ok s
  | None -> Error ("missing string field " ^ name)

let algo_of_string = function
  | "es" -> Ok Es
  | "ess" -> Ok Ess
  | "weak_set" -> Ok Weak_set
  | "register" -> Ok Register
  | s -> Error ("unknown algo " ^ s)

let crash_of_json j =
  let* pid = req_int j "pid" in
  let* round = req_int j "round" in
  let* b = req_str j "broadcast" in
  let* broadcast = broadcast_of_json b in
  Ok { Crash.pid; round; broadcast }

let churn_of_json j =
  let* pid = req_int j "pid" in
  let* leave = req_int j "leave" in
  let* rejoin =
    match Json.member "rejoin" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int r) -> Ok (Some r)
    | Some _ -> Error "churn: bad rejoin"
  in
  Ok { Churn.pid; leave; rejoin }

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

let inadmissible_of_json j =
  let* kind = req_str j "kind" in
  let* from_round = req_int j "from_round" in
  match kind with
  | "drop_obligated" -> Ok (Fault.Drop_obligated { from_round })
  | "unstable_source" -> Ok (Fault.Unstable_source { from_round })
  | "root_starvation" -> Ok (Fault.Root_starvation { from_round })
  | "stability_break" -> Ok (Fault.Stability_break { from_round })
  | s -> Error ("unknown inadmissible kind " ^ s)

let faults_of_json j =
  let* duplicate = req_float j "duplicate" in
  let* extra_delay = req_float j "extra_delay" in
  let* max_extra = req_int j "max_extra" in
  let* reorder = req_float j "reorder" in
  let* inadmissible =
    match Json.member "inadmissible" j with
    | None | Some Json.Null -> Ok None
    | Some m ->
      let* m = inadmissible_of_json m in
      Ok (Some m)
  in
  Ok { Fault.duplicate; extra_delay; max_extra; reorder; inadmissible }

let delivery_of_json j =
  let* receiver = req_int j "to" in
  let* arrival = req_int j "at" in
  Ok { Adv.receiver; arrival }

let sender_deliveries_of_json j =
  let* sender = req_int j "from" in
  let* ds =
    match Json.member "links" j with
    | Some (Json.List l) -> map_result delivery_of_json l
    | _ -> Error "plan: missing list field links"
  in
  Ok (sender, ds)

let plan_of_json j =
  let* source =
    match Json.member "source" j with
    | None | Some Json.Null -> Ok None
    | Some (Json.Int s) -> Ok (Some s)
    | Some _ -> Error "plan: bad source"
  in
  let* deliveries =
    match Json.member "deliveries" j with
    | Some (Json.List l) -> map_result sender_deliveries_of_json l
    | _ -> Error "plan: missing list field deliveries"
  in
  Ok { Adv.source; deliveries }

let schedule_of_json j =
  let* sched_env =
    match Json.member "env" j with
    | Some e -> env_of_json ~where:"schedule.env" e
    | None -> Error "schedule: missing field env"
  in
  let* plans =
    match Json.member "plans" j with
    | Some (Json.List l) -> map_result plan_of_json l
    | _ -> Error "schedule: missing list field plans"
  in
  Ok { sched_env; plans }

let of_json j =
  let* v =
    match Json.member "v" j with
    | None -> Ok 1 (* pre-versioning repro files (PR 2/4) *)
    | Some n -> (
      match Json.to_int n with
      | Some n when n >= 1 && n <= version -> Ok n
      | Some n ->
        Error
          (Printf.sprintf "unsupported scenario schema v%d (this build reads <= v%d)"
             n version)
      | None -> Error "v: expected an integer")
  in
  let* algo_s = req_str j "algo" in
  let* algo = algo_of_string algo_s in
  let* n = req_int j "n" in
  let* gst = req_int j "gst" in
  let* rotation =
    match Json.member "rotation" j with
    | Some r -> rotation_of_json r
    | None -> Error "missing field rotation"
  in
  let* noise = req_float j "noise" in
  let* horizon = req_int j "horizon" in
  let* seed = req_int j "seed" in
  let* crashes =
    match Json.member "crashes" j with
    | Some (Json.List l) -> map_result crash_of_json l
    | _ -> Error "missing list field crashes"
  in
  let* churn =
    if v < 2 then Ok []
    else
      match Json.member "churn" j with
      | None | Some Json.Null -> Ok []
      | Some (Json.List l) -> map_result churn_of_json l
      | Some _ -> Error "churn: expected a list"
  in
  let* env =
    if v < 2 then Ok None
    else
      match Json.member "env" j with
      | None | Some Json.Null -> Ok None
      | Some e ->
        let* e = env_of_json ~where:"env" e in
        Ok (Some e)
  in
  let* ops_per_client = req_int j "ops_per_client" in
  let* faults =
    match Json.member "faults" j with
    | Some f -> faults_of_json f
    | None -> Error "missing field faults"
  in
  let* schedule =
    match Json.member "schedule" j with
    | None | Some Json.Null -> Ok None
    | Some s ->
      let* s = schedule_of_json s in
      Ok (Some s)
  in
  (* A case no sampler could write is refused here, not half-run. *)
  let refuse_if bad fmt = Printf.ksprintf (fun e -> if bad then Error e else Ok ()) fmt in
  let* () = refuse_if (n < 1) "n must be >= 1 (got %d)" n in
  let* () = Result.map_error (( ^ ) "crashes: ") (Crash.check_events ~n crashes) in
  let* () = Result.map_error (( ^ ) "churn: ") (Churn.check_events ~n churn) in
  let* () =
    refuse_if (algo = Register && churn <> [])
      "churn: register cases take no churn schedule"
  in
  let* () =
    refuse_if (ops_per_client < 0) "ops_per_client must be >= 0 (got %d)" ops_per_client
  in
  let* () =
    refuse_if (not (noise >= 0. && noise <= 1.)) "noise must be in [0, 1] (got %g)" noise
  in
  let* () =
    match rotation with
    | Adv.Pinned p ->
      refuse_if (p < 0 || p >= n) "rotation: pinned pid %d outside [0, %d)" p n
    | Adv.Round_robin | Adv.Random_source -> Ok ()
  in
  Ok
    {
      algo;
      n;
      gst;
      rotation;
      noise;
      horizon;
      seed;
      crashes;
      churn;
      env;
      ops_per_client;
      faults;
      schedule;
    }
