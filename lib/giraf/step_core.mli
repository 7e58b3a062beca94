(** The single per-round stepping core shared by the execution engines and
    the model checker.

    One iteration of Alg. 1 is three phases, each owned here and nowhere
    else:

    - {b begin_round}: churn transitions (a leaver goes absent, a rejoiner
      restarts from scratch with an empty mailbox), then the round's crash
      events are latched against the fates as they stand;
    - {b compute}: iteration [k] consumes every arrival [<= k-1] and runs
      [compute] on round [k-1]'s mailbox (or [initialize] when the process
      has no state), producing the round-[k] broadcast; consensus deciders
      halt and send nothing;
    - {b deliver}: the round-[k] messages are dispatched under the
      adversary plan ({!Dispatch} semantics: arrivals clamped to [>= k],
      receivers must be live, a plan entry pins a [Broadcast_subset]
      crasher's partial broadcast, a [Broadcast_all] crasher reaches every
      live non-crashing process timely) and filed into the mailboxes
      ({!Backend.file}), the crashers are marked, and the ESS
      stable-source bookkeeping advances.

    One core ({!Consensus}) owns the three phases for processes that may
    decide. The weak-set {!Service} is a thin layer over that core: its
    processes never decide, and it adds only the client scripts, the
    BLOCK flags and a client-operation phase between rounds. It reaches
    the core through the [on_compute] hook (an add completes when
    [compute] clears BLOCK) and [set_state] (the operation phase).

    {!Runner} (both families, one round loop) and [Anon_rsm] drive a core
    round-by-round; the model checker ([Anon_mc.System]) cuts the same
    cycle after the compute phase, [copy]s the core to branch, reads
    states through the accessors, and asks [preview] what a plan would
    deliver without delivering it. [begin_round] and [compute] take
    observation hooks that default to no-ops; [deliver] and [preview]
    take none and return the dispatched round ({!Dispatch.stats}), from
    which the runner emits its deliver events, so the checker pays
    nothing for the runner's observability. A search and its replay read
    the stable source ([stable]) and the stop rule ([all_decided]) from
    the core. *)

type fate = Intf.fate = Live | Crashed | Halted | Away

type op_spec = Do_add of Anon_kernel.Value.t | Do_get | Do_add_with of (Anon_kernel.Value.Set.t -> Anon_kernel.Value.t)
(** One client operation of a weak-set workload (see {!Runner.Ws},
    which re-exports this type). *)

type workload = (int * (int * op_spec) list) list
(** Per pid: [(earliest_round, op)] scripts, in execution order. *)

(** Consensus-style stepping (Alg. 2/3 families): processes may decide
    and halt. *)
module Consensus (A : Intf.ALGORITHM) :
  Intf.CORE with type state = A.state and type msg = A.msg

(** Weak-set-style stepping (Alg. 4): no decisions, but a per-round
    client-operation phase between the core's [deliver] and the next
    {!Service.begin_round}. The phases [ctx] and [deliver] and the
    accessors are the core's, reached through {!Service.core}. *)
module Service (S : Intf.SERVICE) : sig
  module Core : Intf.CORE with type state = S.state and type msg = S.msg

  type t

  val create :
    n:int -> crash:Crash.t -> churn:Churn.t -> env:Env.t -> workload:workload -> t

  val copy : t -> t
  val core : t -> Core.t

  val begin_round :
    ?on_leave:(pid:int -> pending:(Anon_kernel.Value.t * int) option -> unit) ->
    ?on_rejoin:(pid:int -> unit) ->
    t ->
    unit
  (** As for consensus; a leaver's pending add (value, invoked round) is
      handed to [on_leave] for recording as incomplete and cleared. A
      rejoiner keeps its remaining script. *)

  val compute :
    ?observe:(pid:int -> round:int -> S.state -> unit) ->
    ?on_add_complete:(pid:int -> value:Anon_kernel.Value.t -> invoked_round:int -> unit) ->
    t ->
    S.msg Dispatch.outbound list
  (** The compute phase; a pending add completes ([on_add_complete]) the
      moment [compute] clears the BLOCK flag, before [observe] sees the
      state. Clearing by [initialize] does not count. *)

  val ops :
    ?on_get:(pid:int -> result:Anon_kernel.Value.Set.t -> unit) ->
    ?on_add:(pid:int -> value:Anon_kernel.Value.t -> unit) ->
    t ->
    unit
  (** The round-[round] operation phase: one operation per unblocked live
      client in pid order, each starting no earlier than its scripted
      round. Adds set the BLOCK flag; gets are non-blocking. *)

  val script : t -> int -> (int * op_spec) list
  val blocked : t -> int -> (Anon_kernel.Value.t * int) option

  val compute_time : int -> int
  val op_time : int -> int
  (** The weak-set judge's clock ({!Checker.ws_op}): iteration [k]'s
      compute, where adds complete, is at [compute_time k = 2k]; round
      [k]'s operations, after it, at [op_time k = 2k + 1]. *)
end
