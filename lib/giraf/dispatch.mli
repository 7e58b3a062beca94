(** Shared broadcast-delivery phase of the runners.

    Applies an adversary plan (and the crash-round partial broadcasts) to
    the messages produced in one round, scheduling arrivals into receiver
    mailboxes and accounting timeliness for the trace. *)

type 'msg outbound = { sender : int; msg : 'msg }

type stats = {
  timely : (int * int list) list;  (** sender -> timely receivers (w/o self) *)
  delivered : int;
  timely_count : int;
}

val dispatch :
  round:int ->
  outgoing:'msg outbound list ->
  crashing_events:Crash.event list ->
  eligible:(int -> bool) ->
  receivers:(unit -> int list) ->
  plan:Adversary.plan ->
  crash_rng:Anon_kernel.Rng.t ->
  ?on_deliver:(sender:int -> receiver:int -> arrival:int -> unit) ->
  schedule:(sender:int -> receiver:int -> arrival:int -> sent:int -> 'msg -> unit) ->
  unit ->
  stats
(** Self-delivery (always timely) is performed for every outbound message;
    crashing senders reach only the subset dictated by their crash event
    — for [Broadcast_subset] a plan entry for the crashing sender, when
    present, pins the subset (and arrivals) deterministically, otherwise
    the subset is chosen with [crash_rng]; all other senders follow
    [plan], a sender's first entry winning. [eligible] says whether a pid
    may still receive (alive, not halted); [receivers ()] lists the pids
    a crashing sender may target, and is called only for a crashing
    sender that broadcasts without a scripted subset. Arrivals are
    clamped to [>= round]. [schedule] sees every delivery,
    self-deliveries included, sender by sender in [outgoing] order, each
    sender's self-delivery first. [on_deliver] observes every
    point-to-point delivery (self-deliveries excluded), after the
    corresponding [schedule] call. *)
