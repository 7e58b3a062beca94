(** The loopback wire's fault gauntlet.

    Every transmitted copy passes the {!Anon_chaos.Netfault.spec}
    gauntlet independently: severing (link absent from the topology at
    the send round) and extra delay push its due time out; a drop is
    recovered by the built-in reliability layer — bounded exponential
    backoff stands in for retransmission, so the copy's due time absorbs
    the lost attempts and the paper's reliable-link model survives
    intact (messages are delayed, never lost); a duplicate adds a late
    echo copy. Reordering emerges for free from independent per-copy
    delays.

    The transport holds no packets and no clock: given the send instant
    [now], it draws each copy's due time and hands it to the caller,
    which files the packet in its event calendar. Times are integer
    nanoseconds on the caller's clock. Fault draws use one RNG {e per
    sender} (split deterministically from the seed), so a fixed seed and
    a fixed send order yield the same fault pattern.

    Self-delivery is the caller's job (a process's own message is always
    timely and never crosses the wire), matching the lockstep dispatch. *)

type t

type stats = {
  copies_sent : int;  (** Point-to-point copies offered to the wire. *)
  retransmissions : int;  (** Backoff resends: copies lost and recovered. *)
  duplicated : int;  (** Echo copies delivered in addition to the original. *)
  delayed : int;  (** Copies given extra wire latency. *)
  severed : int;  (** Copies over links absent from the topology. *)
}

val create : n:int -> faults:Anon_chaos.Netfault.spec -> seed:int -> unit -> t
(** @raise Anon_giraf.Config_error.Invalid_config on [n < 1] or an
    invalid fault spec. *)

val send_to :
  t -> now:int -> src:int -> round:int -> dsts:int list -> (dst:int -> due:int -> unit) -> unit
(** Offer one copy per destination (self silently skipped), in list
    order, each drawn through the fault gauntlet; [deliver ~dst ~due] is
    called once per copy that will reach [dst] — twice for a duplicated
    one — with [due >= now]. [round] is the message's send round: the
    topology is evaluated at it. *)

val broadcast : t -> now:int -> src:int -> round:int -> (dst:int -> due:int -> unit) -> unit
(** {!send_to} every process except [src], in increasing pid order. *)

val stats : t -> stats
