(** Unsynchronized-round execution of GIRAF algorithms.

    The lockstep [Runner] advances every process's end-of-round together;
    here each process fires {!Shell}'s end-of-round at its own
    adversary-chosen pace, and a broadcast carries the {e whole round
    message set} [⟨M_i[k], k⟩] (Alg. 1 line 12), which the receiver merges
    into its own. A receiver can thereby obtain a sender's round-[k]
    message through a third party (footnote 2 of the paper): timeliness
    is judged on message {e content} in the receiver's round-[k] set when
    it computes round [k], not on direct links. Time is measured in
    global ticks; paces and delays are tick-valued functions supplied by
    the adversary. *)

type pace_fn = pid:int -> round:int -> Anon_kernel.Rng.t -> int
(** Ticks between a process's consecutive end-of-rounds (clamped to
    [>= 1]). *)

type delay_fn =
  sender:int -> receiver:int -> round:int -> Anon_kernel.Rng.t -> int
(** Broadcast latency in ticks (clamped to [>= 1]). *)

(** The built-in paces and delays: uniform draws from [\[1, max\]], or a
    fixed tick count. Each raises [Config_error.Invalid_config] when its
    argument is below 1. *)

val uniform_pace : max:int -> pace_fn
val fixed_pace : int -> pace_fn
val uniform_delay : max:int -> delay_fn
val fixed_delay : int -> delay_fn

type config = {
  inputs : Anon_kernel.Value.t list;
  crash : Crash.t;  (** Rounds refer to the process's own round counter. *)
  horizon_ticks : int;
  max_rounds : int;  (** Per-process round cap. *)
  seed : int;
  pace : pace_fn;
  delay : delay_fn;
}

val default_config :
  ?horizon_ticks:int -> ?max_rounds:int -> ?seed:int -> ?pace:pace_fn ->
  ?delay:delay_fn -> inputs:Anon_kernel.Value.t list -> crash:Crash.t -> unit ->
  config
(** @raise Config_error.Invalid_config on empty [inputs],
    [horizon_ticks < 1], [max_rounds < 1], or an inputs/crash size
    mismatch. [run] re-validates directly constructed configs. *)

type outcome = {
  trace : Trace.t;
      (** Round-indexed trace ({!Trace.of_log}) with content-based
          timeliness (relayed copies count) and [env = Async]. *)
  decisions : (int * int * Anon_kernel.Value.t) list;
  all_correct_decided : bool;
  ticks : int;
  rounds_completed : int array;
}

module Make (A : Intf.ALGORITHM) : sig
  val run : ?recorder:Anon_obs.Recorder.t -> config -> outcome
  (** Simulate until every correct process decided, every process stopped
      or the tick horizon passed. The trace claims [Async]: this runner's
      pace/delay adversaries make no environment promise by themselves, so
      to check a guarantee your functions do provide, set the trace's
      [env] before calling the checker.

      [recorder] (default {!Anon_obs.Recorder.off}) receives the shell's
      events and metrics (one [deliver] per relayed round set) and
      [skew.ticks]; see DESIGN.md §7. *)
end
