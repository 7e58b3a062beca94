(** Bounded exhaustive exploration over admissible schedules.

    The engine is generic over a {!SYSTEM}: a deterministic lockstep state
    machine whose only nondeterminism is the per-round adversary plan. A
    node is identified by its canonical key ({!Canon}); visited keys prune
    permutation-equivalent branches, which is sound because every checked
    property is permutation-invariant (DESIGN.md §10).

    Two search orders are provided. {!bfs} explores layer by layer, so the
    first counterexample it reports is at minimal round depth; its frontier
    is a set of {e plan prefixes}, re-simulated from [init] inside worker
    tasks on {!Anon_exec.Pool}, which keeps every node construction inside
    the task's own kernel interner scope — only plain data (plans, keys,
    violations) crosses task boundaries, and the sequential submission-order
    merge makes reports independent of [jobs]. {!dfs} is sequential and
    memory-light: it holds one live branch and shares immutable ancestor
    nodes, stopping at the first violation in deterministic branch order. *)

(** One successor of a node under one plan, in {!SYSTEM.expand}'s order. *)
type 'sys branch =
  | Stepped of {
      plan : Anon_giraf.Adversary.plan;
      sys : 'sys;
      violations : Anon_giraf.Checker.violation list;
          (** The safety violations the transition commits. *)
    }  (** The successor, built. *)
  | Predicted of { plan : Anon_giraf.Adversary.plan; key : string }
      (** Only the successor's {!SYSTEM.key}, known without stepping it.
          Such a successor commits no violation and is admissible; the
          search builds it with {!SYSTEM.apply} only when [key] is new. *)

module type SYSTEM = sig
  type sys

  val init : unit -> sys
  (** Build the root node. Called once per worker task, {e inside} the
      task, so hash-consed kernel state never leaks across interner
      scopes. *)

  val apply : sys -> Anon_giraf.Adversary.plan -> sys
  (** Deterministically step one plan, leaving the input node as it was:
      prefix re-simulation (a worker task replays all its prefixes from
      one root), and building a {!Predicted} successor. *)

  val expand : sys -> sys branch list
  (** All successors under the round's admissible (and, when armed,
      deliberately inadmissible) plans, in a deterministic order. Each is
      either stepped, with the safety violations the transition triggers,
      or predicted: a successor whose key the system knows without
      stepping it. Inadmissible plans are always stepped. The search
      counts a predicted key it has visited as a duplicate and builds
      the others with [apply], so every report is the one a fully
      stepped expansion gives. *)

  val key : sys -> string
  (** Canonical key modulo process permutation. *)

  val terminal : sys -> bool
  (** No further transition can affect any checked property (consensus:
      every correct process decided; weak set: workload drained and no add
      pending). Terminal nodes are not expanded. *)

  val pending : sys -> int list
  (** The processes still owed progress (undecided correct processes /
      clients with a blocked add) — reported when the depth bound cuts a
      branch. *)
end

(** A {!SYSTEM} that can also render a pid-indexed, human-diffable view of
    a node — per-process fate and state key plus the global facts — for the
    runner-vs-checker differential test. Unlike {!SYSTEM.key} this is not
    permutation-canonicalized: pid [i]'s line describes pid [i]. *)
module type SYSTEM_DEBUG = sig
  include SYSTEM

  val snapshot : sys -> string

  val key_full : sys -> string
  (** {!SYSTEM.key} recomputed from scratch, bypassing the incremental
      per-process digest cache ({!Canon.Digest}). Must equal [key] on
      every reachable node — the property the differential test pins. *)
end

type stats = {
  raw_states : int;  (** Nodes generated, before canonicalization. *)
  canonical_states : int;  (** Distinct canonical keys (including the root). *)
  dedup_hits : int;  (** Generated nodes pruned as permutation-equivalent. *)
  expanded : int;  (** Nodes whose successor sets were generated. *)
  frontier_peak : int;  (** Largest BFS layer (DFS: deepest stack). *)
  terminal_branches : int;  (** Distinct nodes closed as terminal. *)
  bound_branches : int;  (** Distinct nodes cut by the depth bound. *)
  pending_at_bound : int;
      (** Bound-cut nodes still owing progress to someone. *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type witness = {
  w_plans : Anon_giraf.Adversary.plan list;  (** Plan for round [k] at index [k-1]. *)
  w_violations : Anon_giraf.Checker.violation list;
}

type bounded = {
  b_plans : Anon_giraf.Adversary.plan list;
  b_blocked : int list;  (** [pending] at the cut node. *)
}

type result = {
  stats : stats;
  violation : witness option;
      (** First safety violation in search order ([bfs]: shallowest). *)
  non_deciding : bounded option;
      (** First depth-bound cut with nonempty [pending] — the bounded
          liveness witness (e.g. ES under an MS-only environment). *)
}

val bfs :
  ?jobs:int ->
  ?recorder:Anon_obs.Recorder.t ->
  ?progress:Format.formatter ->
  depth:int ->
  (module SYSTEM) ->
  result
(** Explore every admissible schedule of up to [depth] rounds.
    [jobs] as in {!Anon_exec.Pool.resolve}. Reports (verdict, stats,
    witnesses) are byte-identical for every [jobs] value; at [jobs = 1]
    the frontier holds live states (no prefix re-simulation, and a
    system's internal caches persist across the search). [progress]
    (e.g. [Format.err_formatter]) receives one live status line per BFS
    level — frontier size, canonical states, states/sec, dedup hit-rate;
    wall clock feeds only these lines, never the result. *)

val dfs :
  ?recorder:Anon_obs.Recorder.t ->
  ?progress:Format.formatter ->
  depth:int ->
  (module SYSTEM) ->
  result
(** Depth-first variant: same node ordering per level, first violation in
    branch order (not necessarily shallowest), single-domain. [progress]
    prints a status line every 10k expansions. *)
