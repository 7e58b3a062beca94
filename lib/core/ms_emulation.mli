(** Algorithm 5 — emulating the MS environment on top of a weak-set.

    Each process executes its GIRAF rounds against a shared weak-set: to
    send its round-[k] message it adds [⟨m, k⟩] to the set (blocking), then
    reads the set, delivers every not-yet-delivered pair, and triggers its
    next end-of-round. Theorem 4: the first process to complete its
    round-[k] add is a source for round [k] — everybody who finishes round
    [k] reads the set after its own add completed, hence after the
    source's, and must see the source's pair.

    Since weak-sets are implementable from registers alone (Props. 2–3),
    consensus over this emulated environment would contradict FLP — which
    is why MS, unlike ES/ESS, cannot solve consensus. The emulation lets us
    check both facts executably: the emulated trace satisfies the MS
    property (T7), and a hosted consensus algorithm with a symmetric
    schedule never terminates while remaining safe (T8). *)

type latency_fn = pid:int -> round:int -> Anon_kernel.Rng.t -> int
(** Steps an [add] takes: the adversary's only lever. *)

val uniform_latency : max:int -> latency_fn
val fixed_latency : int -> latency_fn

val alternating_latency : fast:int -> slow:int -> latency_fn
(** Round-robin "source": in round [k], process [k mod n] is fast — with
    [n] unknown here, the schedule alternates by parity of [pid + round],
    which for two processes yields the classic symmetry-preserving
    schedule. *)

type config = {
  inputs : Anon_kernel.Value.t list;
  crash : Anon_giraf.Crash.t;  (** Crash at emulated round [r]: the process
                                    stops before adding its round-[r] pair. *)
  horizon_rounds : int;  (** End-of-rounds per process; bounds the run. *)
  seed : int;
  latency : latency_fn;
}

val default_config :
  ?horizon_rounds:int -> ?seed:int -> ?latency:latency_fn ->
  inputs:Anon_kernel.Value.t list -> crash:Anon_giraf.Crash.t -> unit -> config
(** @raise Anon_giraf.Config_error.Invalid_config on empty [inputs], a
    [crash] schedule sized for another [n] ({!Anon_giraf.Churn.validate})
    or [horizon_rounds < 1]. *)

type outcome = {
  trace : Anon_giraf.Trace.t;
      (** Emulated rounds ({!Anon_giraf.Trace.of_log} over the set each
          [compute] read), with [env = Ms]; feed to [Checker.check_env]. *)
  decisions : (int * int * Anon_kernel.Value.t) list;
  all_correct_decided : bool;
  steps : int;
      (** One past the last step run: the step at which every correct
          process had decided, or the last add's completion once no add
          is pending. *)
  rounds_completed : int array;  (** Per pid, last end-of-round performed. *)
}

module Make (A : Anon_giraf.Intf.ALGORITHM) : sig
  val run : config -> outcome
end
