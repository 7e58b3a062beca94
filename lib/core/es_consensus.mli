(** Algorithm 2 — consensus in the eventually synchronous (ES) environment.

    Safety idea: a value is {e written} when it appears in {e every} message
    received in a round — in particular in the current source's message, so
    it is known to everybody. A process decides its value [VAL] once
    [PROPOSED = WRITTENOLD = {VAL}]: the value was written in the previous
    round and nothing else is in flight.

    Liveness: once the environment is synchronous, everyone receives the
    same message sets, selects the same maximum written value, and decides
    two even rounds later (Thm. 1). *)

type state

(** Messages are the [PROPOSED] value sets. *)
include
  Anon_giraf.Intf.ALGORITHM
    with type state := state
     and type msg = Anon_kernel.Value.Set.t

val proposed : state -> Anon_kernel.Value.Set.t
val written : state -> Anon_kernel.Value.Set.t

val current_val : state -> Anon_kernel.Value.t
(** The process's current estimate [VAL]. *)

val state_key : state -> string
(** Canonical, run-independent serialization of the full local state —
    equal strings iff equal states. The model checker's symmetry reduction
    builds its multiset keys from this. *)

val msg_key : msg -> string
(** Canonical serialization of a message ([PROPOSED] set). *)

(** Ablation A2: decides as soon as [PROPOSED = {VAL}] with a non-empty
    [WRITTEN], skipping the [WRITTENOLD] guard of line 9. Violates
    agreement under adversarial ES schedules — the guard is load-bearing.
    Its states and messages are ES's, and so are their keys. *)
module No_written_old_guard : sig
  include
    Anon_giraf.Intf.ALGORITHM
      with type msg = Anon_kernel.Value.Set.t
       and type state = state

  val state_key : state -> string
  val msg_key : msg -> string
end
