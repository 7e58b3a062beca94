module G = Anon_giraf
module C = Anon_consensus
module L = Anon_rsm.Load.Make (C.Es_consensus)

(* The canonical saturation configuration: a window of 8 instances
   batching 4 proposals each over ES (gst 4) with two shards. Capacity is
   roughly (window/batch-amortized) instances per decide interval — the
   sweep crosses it so the curve shows both regimes: throughput tracking
   the offered rate below saturation, then flattening while queueing
   pushes the latency percentiles up. *)
let gst = 4

let saturation_reports rates =
  List.map
    (fun rate ->
      let w =
        Anon_rsm.Workload.make ~where:"Exp_load.saturation" ~skew:0.2
          ~value_range:8 ~shards:2 ~proposals:2_000 ~rate ~seed:42 ()
      in
      let r =
        L.run ~env:(Printf.sprintf "es:%d" gst) ~n:3 ~window:8 ~batch:4
          ~horizon:200_000
          ~adversary:(fun ~shard:_ ~instance:_ -> G.Adversary.es ~gst ())
          w
      in
      (rate, r))
    rates

let t16 () =
  let reports = saturation_reports [ 1.; 2.; 4.; 8.; 16.; 32. ] in
  let rows =
    List.map
      (fun (rate, (r : Anon_rsm.Load.report)) ->
        [
          Printf.sprintf "%g" rate;
          Table.cell_int r.Anon_rsm.Load.decided;
          Table.cell_int r.Anon_rsm.Load.rounds;
          Table.cell_float ~decimals:3 r.Anon_rsm.Load.throughput;
          Table.cell_float ~decimals:1 r.Anon_rsm.Load.p50_rounds;
          Table.cell_float ~decimals:1 r.Anon_rsm.Load.p99_rounds;
          Table.cell_float ~decimals:1 r.Anon_rsm.Load.p999_rounds;
          Table.cell_bool
            (r.Anon_rsm.Load.agreement_ok && r.Anon_rsm.Load.validity_ok);
        ])
      reports
  in
  Table.make ~id:"T16"
    ~title:"Multi-shot service saturation: throughput vs offered load"
    ~claim:
      "The RSM layer multiplexes a window of consensus instances over the \
       one-shot ES algorithm; batching amortizes one round-trip across \
       [batch] proposals, so the service sustains offered loads up to \
       window-limited capacity with flat decide latency, then saturates \
       with queueing latency"
    ~expectation:
      "throughput ≈ offered rate until the knee, then flat at capacity; \
       p50/p99 decide latency flat below the knee, growing with queue depth \
       past it; agreement and validity hold at every rate"
    ~headers:
      [
        "rate (prop/round)"; "decided"; "rounds"; "throughput"; "p50";
        "p99"; "p99.9"; "safe";
      ]
    ~rows
