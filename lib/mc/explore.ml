module R = Anon_obs.Recorder
module M = Anon_obs.Metrics

type 'sys branch =
  | Stepped of {
      plan : Anon_giraf.Adversary.plan;
      sys : 'sys;
      violations : Anon_giraf.Checker.violation list;
    }
  | Predicted of { plan : Anon_giraf.Adversary.plan; key : string }

module type SYSTEM = sig
  type sys

  val init : unit -> sys
  val apply : sys -> Anon_giraf.Adversary.plan -> sys
  val expand : sys -> sys branch list
  val key : sys -> string
  val terminal : sys -> bool
  val pending : sys -> int list
end

module type SYSTEM_DEBUG = sig
  include SYSTEM

  val snapshot : sys -> string
  val key_full : sys -> string
end

type stats = {
  raw_states : int;
  canonical_states : int;
  dedup_hits : int;
  expanded : int;
  frontier_peak : int;
  terminal_branches : int;
  bound_branches : int;
  pending_at_bound : int;
}

let zero_stats =
  {
    raw_states = 0;
    canonical_states = 0;
    dedup_hits = 0;
    expanded = 0;
    frontier_peak = 0;
    terminal_branches = 0;
    bound_branches = 0;
    pending_at_bound = 0;
  }

let add_stats a b =
  {
    raw_states = a.raw_states + b.raw_states;
    canonical_states = a.canonical_states + b.canonical_states;
    dedup_hits = a.dedup_hits + b.dedup_hits;
    expanded = a.expanded + b.expanded;
    frontier_peak = max a.frontier_peak b.frontier_peak;
    terminal_branches = a.terminal_branches + b.terminal_branches;
    bound_branches = a.bound_branches + b.bound_branches;
    pending_at_bound = a.pending_at_bound + b.pending_at_bound;
  }

type witness = {
  w_plans : Anon_giraf.Adversary.plan list;
  w_violations : Anon_giraf.Checker.violation list;
}

type bounded = { b_plans : Anon_giraf.Adversary.plan list; b_blocked : int list }

type result = {
  stats : stats;
  violation : witness option;
  non_deciding : bounded option;
}

(* Shared accumulator for both search orders; every mutation happens in a
   deterministic order (BFS: level by level; DFS: branch order), so
   reports are reproducible. *)
type acc = {
  visited : (string, unit) Hashtbl.t;
  mutable raw : int;
  mutable canonical : int;
  mutable dedup : int;
  mutable n_expanded : int;
  mutable peak : int;
  mutable term : int;
  mutable bound : int;
  mutable pend_bound : int;
  mutable viol : witness option;
  mutable nondec : bounded option;
}

let make_acc () =
  {
    visited = Hashtbl.create 4096;
    raw = 0;
    canonical = 0;
    dedup = 0;
    n_expanded = 0;
    peak = 0;
    term = 0;
    bound = 0;
    pend_bound = 0;
    viol = None;
    nondec = None;
  }

(* One successor of [parent], in deterministic order. Returns
   [Some (prefix', s')] when the node should be explored further.
   Violations are reported before the dedup check — a violating
   transition may well land on a visited state. A predicted branch is
   quiet (it commits no violation) and is built with [apply] only when
   its key is new: a predicted key already visited is a duplicate, never
   built. *)
let admit (type s) (module S : SYSTEM with type sys = s) acc ~prefix ~level ~depth
    (parent : s) branch =
  let plan, key, violations, build =
    match branch with
    | Stepped { plan; sys; violations } -> (plan, S.key sys, violations, fun () -> sys)
    | Predicted { plan; key } -> (plan, key, [], fun () -> S.apply parent plan)
  in
  acc.raw <- acc.raw + 1;
  if violations <> [] then begin
    (if acc.viol = None then
       acc.viol <- Some { w_plans = prefix @ [ plan ]; w_violations = violations });
    None
  end
  else if Hashtbl.mem acc.visited key then begin
    acc.dedup <- acc.dedup + 1;
    None
  end
  else begin
    Hashtbl.replace acc.visited key ();
    acc.canonical <- acc.canonical + 1;
    let s' = build () in
    if S.terminal s' then begin
      acc.term <- acc.term + 1;
      None
    end
    else if level + 1 >= depth then begin
      acc.bound <- acc.bound + 1;
      let pending = S.pending s' in
      if pending <> [] then begin
        acc.pend_bound <- acc.pend_bound + 1;
        if acc.nondec = None then
          acc.nondec <- Some { b_plans = prefix @ [ plan ]; b_blocked = pending }
      end;
      None
    end
    else Some (prefix @ [ plan ], s')
  end

let finish acc =
  {
    stats =
      {
        raw_states = acc.raw;
        canonical_states = acc.canonical;
        dedup_hits = acc.dedup;
        expanded = acc.n_expanded;
        frontier_peak = acc.peak;
        terminal_branches = acc.term;
        bound_branches = acc.bound;
        pending_at_bound = acc.pend_bound;
      };
    violation = acc.viol;
    non_deciding = acc.nondec;
  }

let emit_metrics recorder r =
  if R.active recorder then begin
    let c name by = M.incr ~by (R.counter recorder name) in
    c "mc.raw_states" r.stats.raw_states;
    c "mc.canonical_states" r.stats.canonical_states;
    c "mc.dedup_hits" r.stats.dedup_hits;
    c "mc.expanded" r.stats.expanded;
    c "mc.terminal_branches" r.stats.terminal_branches;
    c "mc.bound_branches" r.stats.bound_branches;
    c "mc.violations" (match r.violation with None -> 0 | Some _ -> 1);
    M.set_gauge (R.gauge recorder "mc.frontier_peak")
      (float_of_int r.stats.frontier_peak)
  end

(* Live progress lines (stderr under [anonc mc --progress]). Wall clock
   feeds only this reporting — never the result — so verdicts stay
   deterministic. *)
let report_progress ppf ~t0 ~label ~depth ~frontier acc =
  let secs = Anon_obs.Clock.ns_to_s (Anon_obs.Clock.since_ns t0) in
  let rate = if secs > 0.0 then float_of_int acc.raw /. secs else 0.0 in
  let dedup_pct =
    if acc.raw > 0 then 100.0 *. float_of_int acc.dedup /. float_of_int acc.raw
    else 0.0
  in
  Format.fprintf ppf
    "mc: %s=%d frontier=%d canonical=%d states/s=%.0f dedup-hit=%.1f%%@." label
    depth frontier acc.canonical rate dedup_pct

(* Root bookkeeping shared by both orders: returns [true] when the root
   itself still needs expansion. *)
let seed_root acc ~depth ~key ~terminal ~pending =
  Hashtbl.replace acc.visited key ();
  acc.raw <- 1;
  acc.canonical <- 1;
  if terminal then begin
    acc.term <- 1;
    false
  end
  else if depth <= 0 then begin
    acc.bound <- 1;
    if pending <> [] then begin
      acc.pend_bound <- 1;
      acc.nondec <- Some { b_plans = []; b_blocked = pending }
    end;
    false
  end
  else true

(* The frontier holds live states, so a system's caches (plan-enumeration
   memo, key digests) persist across the whole search. The search runs on
   one domain; [jobs] stays only for the benchmark's callers, which pass
   1, and goes with the next change to the benchmark. *)
let bfs ?(jobs = 1) ?(recorder = R.off) ?progress ~depth (module S : SYSTEM) =
  if jobs <> 1 then
    Anon_giraf.Config_error.fail ~where:"Explore.bfs"
      (Printf.sprintf "jobs must be 1 (got %d): the search runs on one domain" jobs);
  let t0 = Anon_obs.Clock.now_ns () in
  let r =
    Anon_exec.Pool.isolate
      (fun () ->
        let acc = make_acc () in
        let root = S.init () in
        let expand_root =
          seed_root acc ~depth ~key:(S.key root) ~terminal:(S.terminal root)
            ~pending:(S.pending root)
        in
        let frontier = ref (if expand_root then [ ([], root) ] else []) in
        let level = ref 0 in
        while !frontier <> [] && acc.viol = None do
          let len = List.length !frontier in
          acc.peak <- max acc.peak len;
          (match progress with
          | Some ppf ->
            report_progress ppf ~t0 ~label:"level" ~depth:!level ~frontier:len acc
          | None -> ());
          let next = ref [] in
          List.iter
            (fun (prefix, sys) ->
              acc.n_expanded <- acc.n_expanded + 1;
              List.iter
                (fun branch ->
                  match
                    admit (module S) acc ~prefix ~level:!level ~depth sys branch
                  with
                  | None -> ()
                  | Some held -> next := held :: !next)
                (S.expand sys))
            !frontier;
          frontier := List.rev !next;
          incr level
        done;
        finish acc)
      ()
  in
  emit_metrics recorder r;
  r

let dfs ?(recorder = R.off) ?progress ~depth (module S : SYSTEM) =
  let t0 = Anon_obs.Clock.now_ns () in
  let r =
    Anon_exec.Pool.isolate
      (fun () ->
        let acc = make_acc () in
        let root = S.init () in
        let expand_root =
          seed_root acc ~depth ~key:(S.key root) ~terminal:(S.terminal root)
            ~pending:(S.pending root)
        in
        let rec go sys prefix level stack =
          if acc.viol = None then begin
            acc.n_expanded <- acc.n_expanded + 1;
            (match progress with
            | Some ppf when acc.n_expanded mod 10_000 = 0 ->
              report_progress ppf ~t0 ~label:"stack" ~depth:stack ~frontier:stack
                acc
            | Some _ | None -> ());
            acc.peak <- max acc.peak stack;
            List.iter
              (fun branch ->
                if acc.viol = None then
                  match admit (module S) acc ~prefix ~level ~depth sys branch with
                  | None -> ()
                  | Some (prefix', s') -> go s' prefix' (level + 1) (stack + 1))
              (S.expand sys)
          end
        in
        if expand_root then go root [] 0 1;
        finish acc)
      ()
  in
  emit_metrics recorder r;
  r
