(* Open-loop load sweeps over the multi-shot consensus service, as
   [anonc load -n 3 --gst 4 --window 8 --batch 4 --shards 2 --skew 0.2
   --value-range 8 --sweep 4,8,12,32 --proposals 2500 --jobs 1] runs
   them. Arrivals are indexed by round, so the generator is never late and
   latency counts from the arrival round. The timed sweep runs its shards
   on one domain: with two, every stall of either core stalls both. The
   traced sample replays every shard sequentially through [Rsm.Make] over
   a timed algorithm and must match [Load.run]'s per-shard counts; it also
   runs the sweep once on [pool_jobs] domains for the pool's metrics. *)

module G = Anon_giraf
module Rsm = Anon_rsm.Rsm
module Load = Anon_rsm.Load
module W = Anon_rsm.Workload
module L = Load.Make (Anon_consensus.Es_consensus)
module Traced_rsm = Rsm.Make (Timed.Algorithm (Anon_consensus.Es_consensus))

let name = "load-rsm"
let jobs = 1
let pool_jobs = min 2 (Anon_exec.Pool.auto_jobs ())
let n = 3
let gst = 4
let window = 8
let batch = 4
let shards = 2
let skew = 0.2
let value_range = 8
let proposals = 2_500
let horizon = 20_000
let rates = [ 4.; 8.; 12.; 32. ]

(* The latency limit behind [rsm.max_rate_p99le20]. *)
let p99_limit = 20.

type input = W.t list

type output = {
  reports : Load.report list;  (** One per rate, in [rates] order. *)
  busy_ms : float;  (** Sum of the pool's shard-task times. *)
  wall_ms : float;  (** Sum of the pool's wall times. *)
}

let prepare ~seed =
  List.map
    (fun rate -> W.make ~skew ~value_range ~shards ~proposals ~rate ~seed ())
    rates

let adversary ~shard:_ ~instance:_ = G.Adversary.es ~gst ()

(* The pool's own [exec.*] counters cost a few table updates per
   [Load.run], so every sweep keeps them. *)
let sweep ~jobs workloads =
  let registry = Anon_obs.Metrics.create () in
  let recorder = Anon_obs.Recorder.create ~metrics:registry () in
  let reports =
    List.map
      (fun w ->
        L.run ~jobs ~recorder ~env:(Printf.sprintf "es:%d" gst) ~n ~window ~batch
          ~horizon ~adversary w)
      workloads
  in
  let counters = (Anon_obs.Metrics.snapshot registry).counters in
  let ms name = float_of_int (List.assoc name counters) /. 1e3 in
  { reports; busy_ms = ms "exec.busy_us"; wall_ms = ms "exec.wall_us" }

let run workloads = sweep ~jobs workloads

let at rate reports =
  List.find (fun (r : Load.report) -> r.workload.W.rate = rate) reports

let check o =
  match
    List.find_opt
      (fun (r : Load.report) ->
        not (r.agreement_ok && r.validity_ok && r.committed = proposals && r.stalled = 0))
      o.reports
  with
  | Some r ->
    Error
      (Printf.sprintf "rate %g: agreement %b, validity %b, committed %d of %d, stalled %d"
         r.workload.W.rate r.agreement_ok r.validity_ok r.committed proposals r.stalled)
  | None -> Ok (at 8. o.reports).p99_rounds

let describe o =
  String.concat "; "
    (List.map
       (fun (r : Load.report) ->
         Printf.sprintf "r%g: %.3f/round p50 %.1f p99 %.1f" r.workload.W.rate
           r.throughput r.p50_rounds r.p99_rounds)
       o.reports)

let sp_rsm = Span.make "rsm.run"

(* Nearest-rank percentile of a non-empty integer sample. *)
let pct p xs = Anon_kernel.Stats.percentile (List.map float_of_int xs) p

type totals = {
  mutable instance_rounds : int list;  (** Local rounds per instance. *)
  mutable waits_r12 : int list;  (** Queue wait per proposal at rate 12. *)
  mutable covered : int;
  mutable committed : int;
  mutable broadcasts : int;
  mutable instance_msgs : int;
  mutable stalled : int;
  mutable mismatches : string list;
}

(* Every shard of every rate, one after the other in this domain. *)
let traced_shards workloads reference =
  let t =
    {
      instance_rounds = [];
      waits_r12 = [];
      covered = 0;
      committed = 0;
      broadcasts = 0;
      instance_msgs = 0;
      stalled = 0;
      mismatches = [];
    }
  in
  List.iter
    (fun w ->
      let expected = (at w.W.rate reference.reports).shards in
      for shard = 0 to shards - 1 do
        let config =
          {
            Rsm.n;
            window;
            batch;
            horizon;
            seed = Load.shard_seed ~workload:w ~shard;
            crash = G.Crash.none ~n;
            churn = G.Churn.none ~n;
            adversary = (fun instance -> Timed.adversary (adversary ~shard ~instance));
          }
        in
        let o =
          Span.time sp_rsm (fun () ->
              Traced_rsm.run config ~proposals:(W.shard_proposals w shard))
        in
        List.iter
          (fun (ir : Rsm.instance_result) ->
            t.instance_rounds <- ir.local_rounds :: t.instance_rounds;
            t.covered <- t.covered + List.length ir.arrivals;
            if w.W.rate = 12. then
              List.iter (fun a -> t.waits_r12 <- (ir.opened - a) :: t.waits_r12) ir.arrivals)
          o.instances;
        t.committed <- t.committed + o.committed_proposals;
        t.broadcasts <- t.broadcasts + o.broadcasts;
        t.instance_msgs <- t.instance_msgs + o.instance_msgs;
        t.stalled <- t.stalled + o.stalled;
        let e = List.find (fun (s : Load.shard_report) -> s.shard = shard) expected in
        if
          not
            (o.decided_proposals = e.decided
            && o.committed_proposals = e.committed
            && o.rounds = e.rounds)
        then
          t.mismatches <-
            Printf.sprintf "rate %g shard %d: traced counts differ from Load.run's"
              w.W.rate shard
            :: t.mismatches
      done)
    workloads;
  t

let traced ~seed ~reference ~reference_ms =
  let workloads = prepare ~seed in
  (* The same sweep on [pool_jobs] domains, timed as an operation is: the
     median one-domain sweep over this one is the pool's speedup. *)
  Gc.full_major ();
  let t0 = Span.now () in
  let pooled = Anon_exec.Pool.isolate (sweep ~jobs:pool_jobs) workloads in
  let pooled_ms = Span.ms_of_ns (Span.now () - t0) in
  let t, wall_ns = Workload.traced_sample (fun () -> traced_shards workloads reference) in
  let failures =
    (match check pooled with Ok _ -> [] | Error e -> [ "pooled sweep: " ^ e ])
    @ (let shards o = List.map (fun (r : Load.report) -> r.shards) o.reports in
       if shards pooled = shards reference then []
       else [ "pooled shard reports differ from the one-domain sweep's" ])
    @ List.rev t.mismatches
  in
  let fi = float_of_int in
  let ratio a b = if b = 0. then 0. else a /. b in
  let max_rate =
    List.fold_left
      (fun acc (r : Load.report) ->
        if r.p99_rounds <= p99_limit && r.committed = proposals then
          Float.max acc r.workload.W.rate
        else acc)
      0. reference.reports
  in
  let r8 = at 8. reference.reports in
  let metrics =
    Timed.core_metrics ()
    @ [
        ("rsm.instances", fi (List.length t.instance_rounds));
        ("rsm.batch_fill", ratio (fi t.covered) (fi (List.length t.instance_rounds)));
        ("rsm.msgs_per_commit", ratio (fi t.instance_msgs) (fi t.committed));
        ("rsm.bundles_per_commit", ratio (fi t.broadcasts) (fi t.committed));
        ("rsm.queue_wait_rounds_p50_r12", pct 50. t.waits_r12);
        ("rsm.queue_wait_rounds_p99_r12", pct 99. t.waits_r12);
        ("rsm.instance_rounds_p50", pct 50. t.instance_rounds);
        ("rsm.instance_rounds_p99", pct 99. t.instance_rounds);
        ("rsm.stalled", fi t.stalled);
        ("rsm.self_ms", Span.self_ms sp_rsm);
        ("rsm.decide_p50_rounds_r8", r8.p50_rounds);
        ("rsm.decide_p99_rounds_r8", r8.p99_rounds);
        ("rsm.throughput_r32", (at 32. reference.reports).throughput);
        ("rsm.max_rate_p99le20", max_rate);
        ( "rsm.proposals_per_s",
          fi (proposals * List.length rates) /. (reference_ms /. 1e3) );
        ("exec.shard_busy_ms", pooled.busy_ms);
        ("exec.speedup", ratio reference_ms pooled_ms);
        ("exec.utilization", ratio pooled.busy_ms (fi pool_jobs *. pooled.wall_ms));
      ]
    @ Workload.trace_metrics ~wall_ns ~reference_ms
  in
  { Workload.metrics; failures }
