(* Model-checker verdicts, as [anonc mc --algo es -n 3 --rounds 10
   --gst 6 --jobs 1] computes them. The traced sample runs
   [Explore.bfs] over a timing wrapper around [Consensus_sys.make] of a
   timed model; it must count exactly the states [Mc.run] counts. *)

open Anon_kernel
module G = Anon_giraf
module Mc = Anon_mc.Mc
module Ex = Anon_mc.Explore

let name = "mc-es"
let jobs = 1
let n = 3
let depth = 10
let env = G.Env.Es { gst = 6 }

type input = Mc.config
type output = Mc.report

let prepare ~seed =
  {
    Mc.algo = Mc.Es;
    n;
    env;
    rounds = depth;
    crashes = 0;
    churn = 0;
    max_delay = 1;
    search = Mc.Bfs;
    armed = false;
    jobs = Some jobs;
    seed;
    ops_per_client = 2;
  }

let run config = Mc.run config

let check (r : output) =
  match r.verdict with
  | Mc.Verified -> Ok (float_of_int r.stats.canonical_states)
  | v -> Error ("verdict " ^ Mc.verdict_name v)

let describe (r : output) =
  Printf.sprintf "verdict %s, raw_states %d, canonical_states %d (reduction %.1fx)"
    (Mc.verdict_name r.verdict) r.stats.raw_states r.stats.canonical_states
    (Mc.reduction_factor r)

let sp_search = Span.make "mc.search"
let sp_init = Span.make "mc.init"
let sp_apply = Span.make "mc.apply"
let sp_expand = Span.make "mc.expand"
let sp_key = Span.make "mc.key"
let sp_terminal = Span.make "mc.terminal"

module Timed_system (S : Ex.SYSTEM) : Ex.SYSTEM = struct
  type sys = S.sys

  let init () = Span.time sp_init S.init
  let apply s plan = Span.time sp_apply (fun () -> S.apply s plan)
  let expand s = Span.time sp_expand (fun () -> S.expand s)
  let key s = Span.time sp_key (fun () -> S.key s)
  let terminal s = Span.time sp_terminal (fun () -> S.terminal s)
  let pending s = Span.time sp_terminal (fun () -> S.pending s)
end

module Es_model = Timed.Model (Anon_consensus.Es_consensus)

let traced ~seed ~(reference : output) ~reference_ms =
  (* The one schedule [Mc.run] explores at zero crashes, with its input
     derivation. *)
  let spec =
    {
      Anon_mc.Consensus_sys.inputs =
        Rng.shuffle (Rng.make seed) (List.init n (fun i -> i + 1));
      crash = G.Crash.of_events ~n [];
      churn = G.Churn.of_events ~n [];
      env;
      max_delay = 1;
      armed = false;
    }
  in
  let (result : Ex.result), wall_ns =
    Workload.traced_sample (fun () ->
        Span.time sp_search (fun () ->
            let (module S) = Anon_mc.Consensus_sys.make (module Es_model) spec in
            Ex.bfs ~jobs ~depth (module Timed_system (S))))
  in
  let s = result.stats in
  let failures =
    (if result.violation = None && s.bound_branches = 0 then []
     else [ "traced sample: verdict is not verified" ])
    @
    if
      s.raw_states = reference.stats.raw_states
      && s.canonical_states = reference.stats.canonical_states
    then []
    else [ "traced state counts differ from Mc.run's" ]
  in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let metrics =
    Timed.core_metrics ()
    @ [
        ("mc.states_per_s", float_of_int reference.stats.raw_states /. (reference_ms /. 1e3));
        ("mc.raw_states", float_of_int s.raw_states);
        ("mc.canonical_states", float_of_int s.canonical_states);
        ("mc.dedup_frac", ratio s.dedup_hits s.raw_states);
        ("mc.expand_calls", float_of_int sp_expand.count);
        ("mc.expand_self_ms", Span.self_ms sp_expand);
        ("mc.key_calls", float_of_int sp_key.count);
        ("mc.key_self_ms", Span.self_ms sp_key);
        ("mc.state_key_calls", float_of_int Timed.sp_state_key.count);
        ("mc.state_key_ms", Span.total_ms Timed.sp_state_key);
        ("mc.terminal_ms", Span.total_ms sp_terminal);
        ("mc.search_self_ms", Span.self_ms sp_search);
      ]
    @ Workload.trace_metrics ~wall_ns ~reference_ms
  in
  { Workload.metrics; failures }
