(** Multi-shot consensus as a service: the instance multiplexer.

    One shard of the replicated-state-machine layer. A window of up to
    [window] consensus {e instances} is in flight at once; each instance
    is a complete one-shot execution of the underlying algorithm (its own
    {!Anon_giraf.Step_core.Consensus} core, adversary, and RNG streams,
    seeded from {!instance_seed} — the per-instance semantics are the
    exact {!Anon_giraf.Runner} code path, which is what the W=1/B=1
    differential test pins). Each global round, every in-flight instance
    advances one local round. A sender's messages of the round count as
    one physical broadcast, a bundle tagging each message with its
    instance, so the window shares each round's physical broadcast and
    [batch] proposals amortize one round-trip. Instances dispatch
    independently; bundles are only counted: [broadcasts] is the number
    of distinct senders per round, [instance_msgs] the per-instance
    messages, and the [rsm.bundle_size] histogram takes per sender
    [1 + msg_size] for each of its instance messages.

    An instance opened at global round [g] covers up to [batch] queued
    proposals that have already arrived ([arrival <= g]); process [i]
    proposes value [i mod b] of the batch, and validity is judged against
    those proposals (with [b > n], batch values past [n] are proposed by
    nobody and may not be decided). Decided values commit into a
    contiguous log:
    the commit pointer advances across instances in log order and stops
    at the first undecided position — a crashed/stalled instance leaves a
    hole that blocks commit (but not decides) behind it, keeping the
    exposed prefix contiguous.

    Crash and churn schedules are given in {e global} rounds and
    translated into each instance's local frame: a process already
    crashed when an instance opens is silent from that instance's round 1;
    a churner mid-absence leaves at local round 1 and rejoins on the
    global schedule. Liveness is owed per instance to its correct stayers
    only — if none remain, the instance closes as {e stalled}
    ([value = None]). *)

type config = {
  n : int;  (** Processes per instance. *)
  window : int;  (** Max instances in flight, [>= 1]. *)
  batch : int;  (** Max proposals per instance, [1 <= batch <= window]. *)
  horizon : int;  (** Global round budget, [>= 1]. *)
  seed : int;  (** Base seed; instance [k] runs at {!instance_seed}. *)
  crash : Anon_giraf.Crash.t;  (** Global-round crash schedule, size [n]. *)
  churn : Anon_giraf.Churn.t;  (** Global-round churn schedule, size [n]. *)
  adversary : int -> Anon_giraf.Adversary.t;
      (** Fresh adversary for instance [k] (instances must not share
          mutable adversary state; local rounds restart at 1). *)
}

val validate : ?where:string -> config -> unit
(** Raises {!Anon_giraf.Config_error.Invalid_config} (default [where]:
    ["Rsm.validate"]) on [n < 1], [window < 1], [batch < 1],
    [batch > window], [horizon < 1], crash/churn schedules sized other
    than [n], a pid appearing in both schedules, or an instance
    environment {!Anon_giraf.Env.validate} rejects (GST below 1). *)

val instance_seed : seed:int -> instance:int -> int
(** The seed instance [k] runs at — exported so differential tests can
    replay one instance through {!Anon_giraf.Runner} verbatim. *)

type instance_result = {
  instance : int;  (** Log position. *)
  first_proposal : int;  (** Id of the first covered proposal. *)
  batch_values : Anon_kernel.Value.t list;  (** Covered proposal values, arrival order. *)
  arrivals : int list;  (** Covered proposals' arrival rounds, same order. *)
  opened : int;  (** Global round of the instance's local round 1. *)
  decided : int option;  (** Global round the last correct stayer decided. *)
  value : Anon_kernel.Value.t option;  (** Committed value; [None] = stalled. *)
  decisions : (int * int * Anon_kernel.Value.t) list;
      (** [(pid, local_round, value)] in decision order — comparable to
          {!Anon_giraf.Runner.outcome.decisions} of the one-shot run. *)
  local_rounds : int;  (** Local rounds executed. *)
}

type outcome = {
  instances : instance_result list;  (** Ascending instance id. *)
  commit : int;  (** Instances in the contiguous committed prefix. *)
  committed_proposals : int;  (** Proposals covered by that prefix. *)
  decided_proposals : int;  (** Proposals whose instance decided (>= committed). *)
  stalled : int;  (** Instances closed without a decision. *)
  rounds : int;  (** Global rounds executed. *)
  broadcasts : int;  (** Physical bundle broadcasts (one per sender per round). *)
  instance_msgs : int;  (** Per-instance messages inside those bundles. *)
  agreement_ok : bool;
      (** No instance saw two distinct decided values
          ({!Anon_giraf.Checker.check_decisions}, no pid exempt). *)
  validity_ok : bool;
      (** Every decision is a value some process of its instance proposed. *)
}

val latencies : outcome -> float list
(** Decide latency in rounds, one sample per decided proposal:
    [decided - arrival + 1] (open-loop — queue wait included). Order
    follows the log. *)

module Make (A : Anon_giraf.Intf.ALGORITHM) : sig
  val run :
    ?recorder:Anon_obs.Recorder.t ->
    ?on_commit:(instance:int -> round:int -> value:Anon_kernel.Value.t -> unit) ->
    config ->
    proposals:Workload.proposal list ->
    outcome
  (** Drive the full proposal queue (ascending arrival) to completion or
      to [config.horizon], whichever is first; instances still open at the
      horizon close as stalled. [on_commit] fires as the commit pointer
      passes each instance. With an active recorder, emits [rsm.*] and
      [run.*] metrics (see DESIGN.md §14) and {!Anon_obs.Event.Commit} events. *)
end
