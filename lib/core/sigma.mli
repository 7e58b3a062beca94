(** Proposition 4 — Σ, the weakest failure detector for registers, cannot
    be emulated in the MS environment, {e even} with known identities and a
    known number of processes.

    This module makes the paper's two-run indistinguishability proof
    executable. A candidate Σ-emulator is any deterministic automaton that,
    in the known-network setting, maps what it heard each round to a list
    of trusted processes. The adversary builds:

    - run [r1]: [p0] is the only correct process, is the source of every
      round, and receives nothing from [p1]. Completeness forces [p0]'s
      output to become [{p0}] at some time [t].
    - run [r2]: identical for [p0] up to [t] (messages from [p1] merely
      delayed — admissible in MS since [p0] is the source), but [p0]
      crashes after [t] and [p1] is correct. Completeness forces [p1]'s
      output to become [{p1}]; [{p0} ∩ {p1} = ∅] violates intersection.

    Every candidate must lose one way or the other; [two_run_attack]
    reports which. *)

module type CANDIDATE = sig
  val name : string

  type state

  val init : n:int -> me:int -> state
  val step : state -> round:int -> heard_from:int list -> state
  (** One round: [heard_from] lists the senders of the messages received
      this round (always contains [me] — self-delivery). *)

  val trusted : state -> int list
end

type verdict =
  | Completeness_violated of { run : [ `R1 | `R2 ]; horizon : int }
      (** The candidate kept trusting a crashed process (or never settled)
          for the whole horizon — it is not a Σ emulator at all. *)
  | Intersection_violated of { t : int; out_p0 : int list; out_p1 : int list }
      (** The candidate satisfied completeness in both runs; the two
          outputs are disjoint, violating Σ's intersection property. *)

val pp_verdict : Format.formatter -> verdict -> unit

val two_run_attack : (module CANDIDATE) -> horizon:int -> verdict
(** Execute the proof's adversary against a candidate (with [n = 2]).
    @raise Anon_giraf.Config_error.Invalid_config when [horizon < 1]. *)

val builtin_candidates : (module CANDIDATE) list
(** Natural Σ-emulation attempts, all defeated:
    - trust whoever was heard from within a sliding window;
    - trust everybody ever heard from;
    - trust the static full membership;
    - trust a majority of the most recently heard. *)
