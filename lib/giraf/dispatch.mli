(** Shared broadcast-delivery phase of the runners.

    Applies an adversary plan (and the crash-round partial broadcasts) to
    the messages produced in one round, group by group: each of a
    sender's (arrival, receiver set) groups is clamped, intersected with
    the processes that may receive, counted, and handed on whole. *)

type 'msg outbound = { sender : int; msg : 'msg }

type stats = {
  timely : (int * Anon_kernel.Pidset.t) list;
      (** sender -> its timely receivers (w/o self), latest sender first;
          a sender timely to nobody is not listed. *)
  delivered : int;
  timely_count : int;
}

val dispatch :
  round:int ->
  outgoing:'msg outbound list ->
  crashing_events:Crash.event list ->
  eligible:Anon_kernel.Pidset.t ->
  receivers:(unit -> int list) ->
  plan:Adversary.plan ->
  crash_rng:Anon_kernel.Rng.t ->
  ?on_deliver:(sender:int -> receiver:int -> arrival:int -> unit) ->
  send:(sender:int -> 'msg -> unit) ->
  schedule:(sender:int -> arrival:int -> Anon_kernel.Pidset.t -> unit) ->
  unit ->
  stats
(** [outgoing] lists its senders in ascending pid order. For each, in
    that order, [send] records its message and its self-delivery (always
    timely); then its groups follow, each as one [schedule] call whose
    set holds the group's members in [eligible] (the processes that may
    still receive: alive, not halted), the sender excepted if it is a
    member, with the arrival clamped to [>= round]. A group that reaches
    nobody is not scheduled.

    A crashing sender reaches only what its crash event allows: for
    [Broadcast_subset] a plan entry for it, when present, pins the
    subset (and arrivals) deterministically, otherwise {!Crash.reach}
    draws it with [crash_rng] from [receivers ()] (called only then) and
    each reached receiver's arrival is drawn in turn; all other senders
    follow [plan], a sender's first entry winning. [on_deliver] observes
    every point-to-point delivery (self-deliveries excluded), group by
    group in ascending receiver order, after its [schedule] call. *)
