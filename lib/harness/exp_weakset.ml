open Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module S = Anon_shm
module Ws = G.Runner.Ws.Make (C.Weak_set_ms)

(* --- T5 ------------------------------------------------------------------ *)

(* Every process adds one distinct value early; the add latency is driven
   by how fast the rotating source relays everybody's value. *)
let t5_latencies ~n ~noise ~seeds =
  List.concat_map
    (fun seed ->
      let workload =
        List.init n (fun pid -> (pid, [ (2, G.Runner.Ws.Do_add (100 + pid)) ]))
      in
      let config =
        {
          G.Runner.Ws.n;
          crash = G.Crash.none ~n;
          churn = G.Churn.none ~n;
          adversary = G.Adversary.ms ~rotation:Round_robin ~noise ();
          horizon = 40 * (n + 2);
          seed;
        }
      in
      let out = Ws.run config ~workload in
      assert (G.Checker.check_weak_set ~correct:(G.Crash.correct config.crash) out.ops = []);
      List.filter_map
        (fun (a : G.Runner.Ws.add_record) ->
          match a.completed_round with
          | Some r -> Some (float_of_int (r - a.invoked_round))
          | None -> None)
        out.adds)
    seeds

let t5 () =
  let noises = [ 0.0; 0.2; 0.5 ] in
  let row n =
    Table.cell_int n
    :: List.map
         (fun noise ->
           match t5_latencies ~n ~noise ~seeds:(Runs.seeds 5) with
           | [] -> "-"
           | ls -> Table.cell_float (Stats.mean ls))
         noises
  in
  Table.make ~id:"T5" ~title:"Weak-set add() latency in MS (rounds)"
    ~claim:"Thm. 3 — adds always complete; latency is set by source rotation"
    ~expectation:"latency grows with n at noise 0 and collapses as extra links appear"
    ~headers:("n" :: List.map (fun z -> Printf.sprintf "noise=%.1f" z) noises)
    ~rows:(List.map row [ 2; 4; 8; 16 ])

(* --- T6 ------------------------------------------------------------------ *)

let t6_run ~n ~seed =
  let workload =
    C.Register_of_weak_set.workload ~n ~ops_per_client:6 (Rng.make (seed * 31))
  in
  C.Register_of_weak_set.run ~crash:(G.Crash.none ~n)
    ~adversary:(G.Adversary.ms ~rotation:Round_robin ~noise:0.2 ())
    ~horizon:400 ~seed ~workload

let t6 () =
  let row n =
    let outs = List.map (fun seed -> t6_run ~n ~seed) (Runs.seeds 10) in
    let records = List.concat_map (fun (o : C.Register_of_weak_set.outcome) -> o.records) outs in
    let reads =
      List.filter (fun (r : C.Register_of_weak_set.record) -> r.op = Read) records
    in
    let writes = List.length records - List.length reads in
    let viol =
      List.concat_map
        (fun (o : C.Register_of_weak_set.outcome) ->
          C.Register_of_weak_set.check_regular o.records)
        outs
    in
    let ws_viol =
      List.concat_map
        (fun (o : C.Register_of_weak_set.outcome) ->
          G.Checker.check_weak_set ~correct:(List.init n Fun.id) o.ws_ops)
        outs
    in
    [
      Table.cell_int n;
      Table.cell_int writes;
      Table.cell_int (List.length reads);
      Table.cell_int (List.length viol);
      Table.cell_int (List.length ws_viol);
    ]
  in
  Table.make ~id:"T6" ~title:"Regular register over the weak-set (Prop. 1)"
    ~claim:"Prop. 1 — a weak-set implements a regular MWMR register"
    ~expectation:"0 regularity violations, 0 weak-set violations"
    ~headers:[ "n"; "writes"; "reads"; "regularity-viol"; "weak-set-viol" ]
    ~rows:(List.map row [ 2; 4; 8 ])

(* --- T7 ------------------------------------------------------------------ *)

module Emu = C.Ms_emulation.Make (C.Es_consensus)

let t7 () =
  let row n =
    let outs =
      List.map
        (fun seed ->
          let rng = Rng.make seed in
          let inputs = Runs.distinct_inputs ~n rng in
          let config =
            C.Ms_emulation.default_config ~inputs ~crash:(G.Crash.none ~n)
              ~horizon_rounds:60 ~seed
              ~latency:(C.Ms_emulation.uniform_latency ~max:4)
              ()
          in
          Emu.run config)
        (Runs.seeds 20)
    in
    let env =
      List.concat_map (fun (o : C.Ms_emulation.outcome) -> G.Checker.check_env o.trace) outs
    in
    let cons =
      List.concat_map
        (fun (o : C.Ms_emulation.outcome) ->
          G.Checker.check_consensus ~expect_termination:false o.trace)
        outs
    in
    let decided = List.length (List.filter (fun (o : C.Ms_emulation.outcome) -> o.all_correct_decided) outs) in
    [
      Table.cell_int n;
      Table.cell_int (List.length outs);
      Table.cell_int (List.length env);
      Table.cell_int (List.length cons);
      Table.cell_int decided;
    ]
  in
  Table.make ~id:"T7" ~title:"Alg. 5: every emulated round has a source (Thm. 4)"
    ~claim:"Thm. 4 — running GIRAF against a weak-set emulates the MS environment"
    ~expectation:"0 MS-property violations; hosted Alg. 2 stays safe"
    ~headers:[ "n"; "runs"; "MS-violations"; "safety-violations"; "hosted-decided" ]
    ~rows:(List.map row [ 2; 4; 8 ])

(* --- T11 ----------------------------------------------------------------- *)

let t11_workload ~n rng =
  List.init n (fun pid ->
      let ops =
        List.init 8 (fun i ->
            if Rng.bool rng then S.Ws_common.Add ((16 * pid) + i) else S.Ws_common.Get)
      in
      (pid, ops))

let t11 () =
  let run_one construction n seed =
    let rng = Rng.make (seed + 17) in
    let workload = t11_workload ~n rng in
    let crash_at = if seed mod 3 = 0 then [ (n - 1, 40 + seed mod 50) ] else [] in
    let config =
      S.Scheduler.default_config ~n ~seed ~policy:S.Scheduler.Random_steps ~crash_at ()
    in
    let correct =
      List.filter (fun p -> not (List.mem_assoc p crash_at)) (List.init n Fun.id)
    in
    let ops =
      match construction with
      | `Swmr -> (S.Weak_set_swmr.run ~config ~workload).ops
      | `Mwmr -> (S.Weak_set_mwmr.run ~config ~domain:(16 * n) ~workload).ops
    in
    List.length (G.Checker.check_weak_set ~correct ops)
  in
  let row name construction =
    List.map
      (fun n ->
        let total =
          List.fold_left (fun acc s -> acc + run_one construction n s) 0 (Runs.seeds 30)
        in
        Table.cell_int total)
      [ 2; 4; 8 ]
    |> fun cells -> name :: cells
  in
  Table.make ~id:"T11" ~title:"Register-based weak-sets under random interleavings"
    ~claim:"Props. 2/3 — weak-sets from SWMR (known ids) and MWMR (finite domain) registers"
    ~expectation:"0 violations everywhere (30 seeded schedules per cell, some with crashes)"
    ~headers:[ "construction"; "n=2"; "n=4"; "n=8" ]
    ~rows:[ row "SWMR (Prop. 2)" `Swmr; row "MWMR (Prop. 3)" `Mwmr ]
