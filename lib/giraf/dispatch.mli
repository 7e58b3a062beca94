(** Shared broadcast-delivery phase of the runners.

    Applies an adversary plan (and the crash-round partial broadcasts) to
    the messages produced in one round, group by group: each of a
    sender's (arrival, receiver set) groups is clamped, intersected with
    the processes that may receive and counted. The round it returns is
    data: each sender's reached groups, which the mailbox filing, the
    model checker's prediction and the runner's events read. *)

type 'msg outbound = { sender : int; msg : 'msg }

type stats = {
  groups : (int * Adversary.group list) list;
      (** Every sender of [outgoing], in its order, with the groups its
          broadcast reached: each group's arrival clamped to [>= round],
          its receivers those of [eligible] (the sender stays a member
          if it was one, and receives nothing from it), a group that
          reaches nobody else dropped. The plan's own groups, lists and
          entries wherever nothing changed. Self-delivery, always timely,
          is implicit. *)
  timely : (int * Anon_kernel.Pidset.t) list;
      (** sender -> its timely receivers (w/o self), latest sender first;
          a sender timely to nobody is not listed. *)
  delivered : int;  (** Point-to-point deliveries, self-deliveries excluded. *)
  timely_count : int;  (** Those of [delivered] arriving in the round. *)
}

val dispatch :
  round:int ->
  outgoing:'msg outbound list ->
  crashing_events:Crash.event list ->
  eligible:Anon_kernel.Pidset.t ->
  receivers:int list ->
  plan:Adversary.plan ->
  crash_rng:Anon_kernel.Rng.t ->
  stats
(** [outgoing] lists its senders in ascending pid order; [eligible]
    holds the processes that may still receive (alive, not halted).

    A crashing sender reaches only what its crash event allows: for
    [Broadcast_subset] a plan entry for it, when present, pins the
    subset (and arrivals) deterministically, otherwise {!Crash.reach}
    draws it with [crash_rng] from [receivers] and
    each reached receiver's arrival is drawn in turn, sender by sender
    in [outgoing] order; all other senders follow [plan], a sender's
    first entry winning. *)
