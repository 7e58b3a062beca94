module G = Anon_giraf
module Json = Anon_obs.Json
module Hist = Anon_obs.Hist

type shard_report = {
  shard : int;
  proposals : int;
  decided : int;
  committed : int;
  instances : int;
  stalled : int;
  rounds : int;
  broadcasts : int;
  instance_msgs : int;
  agreement_ok : bool;
  validity_ok : bool;
}

type report = {
  algo : string;
  env : string;
  n : int;
  window : int;
  batch : int;
  horizon : int;
  workload : Workload.t;
  shards : shard_report list;
  decided : int;
  committed : int;
  stalled : int;
  rounds : int;
  broadcasts : int;
  instance_msgs : int;
  throughput : float;
  mean_rounds : float;
  p50_rounds : float;
  p99_rounds : float;
  p999_rounds : float;
  agreement_ok : bool;
  validity_ok : bool;
  wall_s : float;
  metrics : Anon_obs.Metrics.snapshot option;
}

let shard_seed ~workload ~shard = workload.Workload.seed + (524_287 * shard)

let shard_json s =
  Json.Obj
    [
      ("shard", Json.Int s.shard);
      ("proposals", Json.Int s.proposals);
      ("decided", Json.Int s.decided);
      ("committed", Json.Int s.committed);
      ("instances", Json.Int s.instances);
      ("stalled", Json.Int s.stalled);
      ("rounds", Json.Int s.rounds);
      ("broadcasts", Json.Int s.broadcasts);
      ("instance_msgs", Json.Int s.instance_msgs);
      ("agreement_ok", Json.Bool s.agreement_ok);
      ("validity_ok", Json.Bool s.validity_ok);
    ]

let to_json r =
  let w = r.workload in
  Json.Obj
    [
      ("schema", Json.String "anon-load/1");
      ("algo", Json.String r.algo);
      ("env", Json.String r.env);
      ("n", Json.Int r.n);
      ("window", Json.Int r.window);
      ("batch", Json.Int r.batch);
      ("horizon", Json.Int r.horizon);
      ( "workload",
        Json.Obj
          [
            ("proposals", Json.Int w.Workload.proposals);
            ("rate", Json.Float w.Workload.rate);
            ("skew", Json.Float w.Workload.skew);
            ("value_range", Json.Int w.Workload.value_range);
            ("hot_value", Json.Int w.Workload.hot_value);
            ("shards", Json.Int w.Workload.shards);
            ("seed", Json.Int w.Workload.seed);
          ] );
      ("decided", Json.Int r.decided);
      ("committed", Json.Int r.committed);
      ("stalled_instances", Json.Int r.stalled);
      ("rounds", Json.Int r.rounds);
      ("broadcasts", Json.Int r.broadcasts);
      ("instance_msgs", Json.Int r.instance_msgs);
      ("throughput", Json.Float r.throughput);
      ("mean_rounds", Json.Float r.mean_rounds);
      ("p50_rounds", Json.Float r.p50_rounds);
      ("p99_rounds", Json.Float r.p99_rounds);
      ("p999_rounds", Json.Float r.p999_rounds);
      ("agreement_ok", Json.Bool r.agreement_ok);
      ("validity_ok", Json.Bool r.validity_ok);
      ("shards_detail", Json.List (List.map shard_json r.shards));
    ]

let render ppf r =
  let w = r.workload in
  Format.fprintf ppf
    "@[<v>load: %s (%s), n=%d window=%d batch=%d, %d shard%s@,%a@,"
    r.algo r.env r.n r.window r.batch w.Workload.shards
    (if w.Workload.shards = 1 then "" else "s")
    Workload.pp w;
  Format.fprintf ppf
    "  decided %d / committed %d of %d proposals in %d rounds (%d stalled instance%s)@,"
    r.decided r.committed w.Workload.proposals r.rounds r.stalled
    (if r.stalled = 1 then "" else "s");
  Format.fprintf ppf
    "  throughput %.3f proposals/round  latency (rounds) mean %.1f p50 %.1f p99 %.1f p99.9 %.1f@,"
    r.throughput r.mean_rounds r.p50_rounds r.p99_rounds r.p999_rounds;
  Format.fprintf ppf "  broadcasts %d (%d instance msgs, %.2f msgs/bundle)@,"
    r.broadcasts r.instance_msgs
    (if r.broadcasts = 0 then 0.
     else float_of_int r.instance_msgs /. float_of_int r.broadcasts);
  Format.fprintf ppf "  agreement %s  validity %s  wall %.2fs (%.0f proposals/s)@]@."
    (if r.agreement_ok then "ok" else "VIOLATED")
    (if r.validity_ok then "ok" else "VIOLATED")
    r.wall_s
    (if r.wall_s > 0. then float_of_int r.decided /. r.wall_s else 0.)

module Make (A : G.Intf.ALGORITHM) = struct
  module R = Rsm.Make (A)

  let run ?jobs ?(metrics = false) ?recorder ?(env = "?")
      ?(crash = fun ~shard:_ -> G.Crash.none ~n:0)
      ?(churn = fun ~shard:_ -> G.Churn.none ~n:0) ~n ~window ~batch ~horizon
      ~adversary workload =
    let shard_config shard =
      let crash =
        let c = crash ~shard in
        if G.Crash.n c = 0 then G.Crash.none ~n else c
      in
      let churn =
        let c = churn ~shard in
        if G.Churn.n c = 0 then G.Churn.none ~n else c
      in
      {
        Rsm.n;
        window;
        batch;
        horizon;
        seed = shard_seed ~workload ~shard;
        crash;
        churn;
        adversary = (fun instance -> adversary ~shard ~instance);
      }
    in
    (* Reject bad configurations before any shard spawns. *)
    let shard_ids = List.init workload.Workload.shards Fun.id in
    List.iter (fun s -> Rsm.validate ~where:"Load.run" (shard_config s)) shard_ids;
    (* Worker domains cannot share the coordinator's sink, so shards
       return their commit sequences and the coordinator re-emits them
       (globally round-ordered, hence deterministic at any [jobs]) —
       collected only when someone is listening. *)
    let commit_sink =
      match recorder with
      | Some r when not (Anon_obs.Sink.is_null (Anon_obs.Recorder.sink r)) ->
        Some r
      | Some _ | None -> None
    in
    let collect_commits = commit_sink <> None in
    let t0 = Anon_obs.Clock.now_ns () in
    let per_shard =
      Anon_exec.Pool.map ?jobs ?recorder
        (fun shard ->
          let reg =
            if metrics then Anon_obs.Metrics.create ()
            else Anon_obs.Metrics.disabled
          in
          let rec_ =
            if metrics then Anon_obs.Recorder.create ~metrics:reg ()
            else Anon_obs.Recorder.off
          in
          let commits = ref [] in
          let on_commit ~instance ~round ~value =
            if collect_commits then commits := (round, instance, value) :: !commits
          in
          let proposals = Workload.shard_proposals workload shard in
          let outcome =
            R.run ~recorder:rec_ ~on_commit (shard_config shard) ~proposals
          in
          let hist = Hist.create () in
          List.iter (Hist.observe hist) (Rsm.latencies outcome);
          let sr =
            {
              shard;
              proposals = List.length proposals;
              decided = outcome.Rsm.decided_proposals;
              committed = outcome.Rsm.committed_proposals;
              instances = List.length outcome.Rsm.instances;
              stalled = outcome.Rsm.stalled;
              rounds = outcome.Rsm.rounds;
              broadcasts = outcome.Rsm.broadcasts;
              instance_msgs = outcome.Rsm.instance_msgs;
              agreement_ok = outcome.Rsm.agreement_ok;
              validity_ok = outcome.Rsm.validity_ok;
            }
          in
          ( sr,
            hist,
            (if metrics then Some (Anon_obs.Metrics.snapshot reg) else None),
            List.rev !commits ))
        shard_ids
    in
    let wall_s = Anon_obs.Clock.(ns_to_s (since_ns t0)) in
    let shards = List.map (fun (sr, _, _, _) -> sr) per_shard in
    let latency = Hist.merge (List.map (fun (_, h, _, _) -> h) per_shard) in
    let snapshots = List.filter_map (fun (_, _, s, _) -> s) per_shard in
    (match commit_sink with
    | None -> ()
    | Some r ->
      (* Interleave the per-shard commit streams chronologically; ties
         break on (shard, instance), so the order is deterministic. *)
      List.concat_map
        (fun ((sr : shard_report), _, _, commits) ->
          List.map (fun (round, i, v) -> (round, sr.shard, i, v)) commits)
        per_shard
      |> List.sort compare
      |> List.iter (fun (round, _, instance, value) ->
             Anon_obs.Recorder.emit r (fun () ->
                 Anon_obs.Event.Commit { instance; round; value })));
    let sum f = List.fold_left (fun acc (s : shard_report) -> acc + f s) 0 shards in
    let decided = sum (fun s -> s.decided) in
    let rounds =
      List.fold_left (fun acc (s : shard_report) -> max acc s.rounds) 0 shards
    in
    let pct p =
      if Hist.is_empty latency then 0. else Hist.percentile latency p
    in
    {
      algo = A.name;
      env;
      n;
      window;
      batch;
      horizon;
      workload;
      shards;
      decided;
      committed = sum (fun s -> s.committed);
      stalled = sum (fun s -> s.stalled);
      rounds;
      broadcasts = sum (fun s -> s.broadcasts);
      instance_msgs = sum (fun s -> s.instance_msgs);
      throughput =
        (if rounds = 0 then 0. else float_of_int decided /. float_of_int rounds);
      mean_rounds = (if Hist.is_empty latency then 0. else Hist.mean latency);
      p50_rounds = pct 50.;
      p99_rounds = pct 99.;
      p999_rounds = pct 99.9;
      agreement_ok =
        List.for_all (fun (s : shard_report) -> s.agreement_ok) shards;
      validity_ok = List.for_all (fun (s : shard_report) -> s.validity_ok) shards;
      wall_s;
      metrics =
        (if metrics && snapshots <> [] then
           Some (Anon_obs.Metrics.merge snapshots)
         else None);
    }
end
