(** Bounded exhaustive exploration over admissible schedules.

    The engine is generic over a {!SYSTEM}: a deterministic lockstep state
    machine whose only nondeterminism is the per-round adversary plan. A
    node is identified by its canonical key ({!Canon}); visited keys prune
    permutation-equivalent branches, which is sound because every checked
    property is permutation-invariant (DESIGN.md §10).

    Two search orders are provided, both on one domain inside one kernel
    interner scope. {!bfs} explores layer by layer, so the first
    counterexample it reports is at minimal round depth; its frontier
    holds live nodes. {!dfs} is memory-light: it holds one live branch and
    shares immutable ancestor nodes, stopping at the first violation in
    deterministic branch order. *)

(** One successor of a node under one plan, in {!SYSTEM.expand}'s order. *)
type 'sys branch =
  | Stepped of {
      plan : Anon_giraf.Adversary.plan;
      sys : 'sys;
      violations : Anon_giraf.Checker.violation list;
          (** The safety violations the transition commits. *)
    }  (** The successor, built. *)
  | Predicted of { plan : Anon_giraf.Adversary.plan; key : Canon.Digest.key }
      (** Only the successor's {!SYSTEM.key}, known without stepping it.
          Such a successor commits no violation and is admissible; the
          search builds it with {!SYSTEM.apply} only when [key] is new. *)

module type SYSTEM = sig
  type sys

  val init : unit -> sys
  (** Build the root node. Called once per search, inside the search's
      interner scope, so hash-consed kernel state never leaks out of it. *)

  val apply : sys -> Anon_giraf.Adversary.plan -> sys
  (** Deterministically step one plan, leaving the input node as it was:
      how the search builds a {!Predicted} successor. *)

  val expand : sys -> sys branch list
  (** All successors under the round's admissible (and, when armed,
      deliberately inadmissible) plans, in a deterministic order. Each is
      either stepped, with the safety violations the transition triggers,
      or predicted: a successor whose key the system knows without
      stepping it. Inadmissible plans are always stepped. The search
      counts a predicted key it has visited as a duplicate and builds
      the others with [apply], so every report is the one a fully
      stepped expansion gives. *)

  val key : sys -> Canon.Digest.key
  (** Canonical key modulo process permutation: a fixed-size record of
      ints, which the search's visited set hashes and compares as ints. *)

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

  val rendered : sys -> int * string * string list
  (** The node's round, its global facts and each process's view in pid
      order, written as text by the writers the key hashes. *)

  val key_full : sys -> Canon.Digest.key
  (** {!SYSTEM.key} recomputed from scratch over {!rendered}, bypassing
      the incremental per-process digest cache ({!Canon.Digest}). Must
      equal [key] on every reachable node — the property the
      differential test pins. *)
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
(** Explore every admissible schedule of up to [depth] rounds. The
    frontier holds live nodes, so a system's internal caches persist
    across the search. [progress] (e.g. [Format.err_formatter]) receives
    one live status line per BFS level — frontier size, canonical states,
    states/sec, dedup hit-rate; wall clock feeds only these lines, never
    the result.

    [jobs] (default 1) must be 1. It stays only because the benchmark's
    [mc-es] workload passes it, and is removed with the next change to
    the benchmark.

    @raise Anon_giraf.Config_error.Invalid_config (where ["Explore.bfs"])
    when [jobs <> 1]. *)

val dfs :
  ?recorder:Anon_obs.Recorder.t ->
  ?progress:Format.formatter ->
  depth:int ->
  (module SYSTEM) ->
  result
(** Depth-first variant: same node ordering per level, first violation in
    branch order (not necessarily shallowest). [progress]
    prints a status line every 10k expansions. *)
