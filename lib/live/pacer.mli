(** Adaptive round timeouts: GST discovered, not scripted.

    The lockstep adversary {e declares} when rounds become timely; the
    live backend has to find out. Each process paces its rounds with this
    estimator: wait [current] seconds for the round's messages; every
    expiry doubles the timeout (bounded by [max_s]) — the classic
    partial-synchrony move of probing for the unknown post-GST message
    bound — while a round that fills within its first deadline decays
    the timeout by 0.9 back toward [init_s], so a transient disruption
    doesn't tax the steady state forever.

    The per-wait-round [trajectory] is the experiment artifact: under a
    faulty wire it traces exactly how the process discovered a workable
    synchrony bound. *)

type t

val create : init_s:float -> max_s:float -> unit -> t
(** @raise Anon_giraf.Config_error.Invalid_config unless
    [0 < init_s <= max_s], both finite. *)

val current : t -> float
(** The timeout (seconds) to use for the next wait. *)

val note_wait : t -> unit
(** Record [current] as the next point of {!trajectory}; call once at the
    start of each wait round. *)

val on_expiry : t -> unit
(** A deadline passed with messages missing: double, capped at [max_s]. *)

val on_quorum : t -> unit
(** The round filled within its first deadline: scale by 0.9, floored
    at [init_s]. *)

val expiries : t -> int
(** Total {!on_expiry} calls. *)

val trajectory : t -> float list
(** Timeout per wait round, oldest first. *)
