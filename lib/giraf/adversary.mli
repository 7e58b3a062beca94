(** Message-scheduling adversaries.

    An adversary is consulted once per round with the current round context
    and decides, for every sender, which receivers get the round-[k]
    message {e timely} (in their own round [k]) and at which later round
    everyone else receives it. Constructors produce the hardest schedules
    admissible in each environment of §2.3, optionally softened by [noise]
    (probability that a non-obligated link happens to be timely). Every
    built-in constructor reads what its environment owes the round from
    {!Env.owes}: full synchrony where every sender is owed, a round
    around a moving source where a source is owed, around the stable
    source where one is owed, and no source where nothing is. *)

type ctx = {
  round : int;
  obligated : int list;
      (** The live processes not crashing this round, ascending: after the
          compute phase they are at once the normal senders, the
          receivers a source owes its timely message (every process that
          enters the round, Lemma 1) and every receiver. A crasher is in
          no context list; its broadcast is {!Dispatch}'s. *)
  correct : int list;  (** Statically correct processes. *)
}

type group = { arrival : int; receivers : Anon_kernel.Pidset.t }
(** One share of a sender's broadcast: every member of [receivers] but
    the sender itself gets the message at [arrival]. [arrival =
    ctx.round] means timely; otherwise [arrival > ctx.round] (dispatch
    clamps an earlier one to the round). *)

type plan = {
  source : int option;
      (** The sender the adversary designates as this round's source
          (recorded in the trace; the checker re-verifies coverage). *)
  groups : (int * group list) list;
      (** Per sender, its groups: a short list of (arrival, receiver
          set), a receiver in two groups receiving two copies.
          Self-delivery is implicit and always timely; a sender's first
          entry wins. *)
}

type delivery = { receiver : int; arrival : int }
(** One link of a plan: the form of scripted plans and of the repro
    JSON. *)

val links : plan -> (int * delivery list) list
(** Each sender's groups as links: one per (group, member other than
    the sender), ascending receiver, a receiver's links in group order. *)

val of_links : source:int option -> (int * delivery list) list -> plan
(** The plan of per-sender links: each sender's links grouped by
    arrival, each link joining the first group of its arrival that lacks
    its receiver, or else starting a group, groups in the order they
    start. The [j]-th repeat of a (receiver, arrival) link thus sits in
    a [j]-th group of that arrival, and every copy is delivered; a
    negative receiver is dropped (no process receives it). [links
    (of_links ~source ls)] is [ls] up to that and the order of each
    sender's links. *)

type t

val name : t -> string
val env : t -> Env.t
(** The environment specification this adversary's schedules satisfy. *)

val plan : t -> ctx -> Anon_kernel.Rng.t -> plan

type rotation =
  | Round_robin  (** Source cycles through correct processes. *)
  | Random_source  (** Fresh uniform source each round. *)
  | Pinned of int  (** Always the same source (must be correct). *)

val sync : unit -> t
(** Everybody timely to everybody, always. *)

val ms :
  ?rotation:rotation -> ?noise:float -> ?max_delay:int -> unit -> t
(** Moving source forever: each round exactly the obligations of MS, plus
    [noise] extra timely links; all other messages arrive with a delay
    uniform in [\[1, max_delay\]]. Defaults: [Round_robin], [noise = 0.],
    [max_delay = 3]. *)

val es : gst:int -> ?noise:float -> ?max_delay:int -> unit -> t
(** MS-grade schedule before [gst], fully timely from round [gst] on. *)

val ess :
  gst:int -> ?source:int -> ?rotation:rotation -> ?noise:float ->
  ?max_delay:int -> unit -> t
(** MS-grade schedule before [gst]; from round [gst] on the pinned [source]
    (default: the smallest correct pid) is timely to everyone every round.
    Non-source links stay as noisy/late as before [gst]. *)

val es_blocking : gst:int -> unit -> t
(** The hardest ES schedule we know for Alg. 2: before [gst], the source
    alternates between the two smallest correct processes (odd/even
    rounds) and every non-source link is one round late — this preserves
    disagreement between the two camps indefinitely, so decisions only
    happen after [gst]. From [gst] on, fully timely. *)

val ess_blocking : gst:int -> ?source:int -> unit -> t
(** Same pre-[gst] two-source alternation; from [gst] on only the pinned
    stable source is timely (minimal ESS). *)

val dynamic :
  stability:int -> ?rooted:bool -> ?rotation:rotation -> ?noise:float ->
  ?max_delay:int -> unit -> t
(** Per-round graphs with stability windows ({!Env.Dynamic}): each pulse
    round rewires the graph to a minimal covering star around a rotating
    root (no root at all when [rooted = false], default [true]); the
    remaining [stability - 1] rounds of each window are fully timely.
    Requires [stability >= 1]. *)

val async : ?max_delay:int -> ?timely_chance:float -> unit -> t
(** No obligations: each link is timely with probability [timely_chance]
    (default 0.3), late otherwise. *)

val scripted :
  name:string -> env:Env.t -> (ctx -> Anon_kernel.Rng.t -> plan) -> t
(** Fully custom schedule (used by tests to force worst cases). *)

val of_schedule : ?name:string -> env:Env.t -> plan list -> t
(** [of_schedule ~env plans] replays a recorded schedule: round [k] gets
    [List.nth plans (k - 1)] verbatim (the context and RNG are ignored),
    and rounds past the end of the list fall back to [timely_all]. This is
    how model-checker witnesses re-execute through the runners: deliveries
    naming receivers that have meanwhile crashed or halted are dropped by
    dispatch, everything else is deterministic. *)

val map_plan :
  ?rename:(string -> string) -> (ctx -> Anon_kernel.Rng.t -> plan -> plan) -> t -> t
(** [map_plan f t] post-processes every plan [t] emits with [f] (same
    declared environment). This is the wrapping hook the chaos layer's
    fault injectors build on: [f] receives the round context, the RNG
    (already advanced by the inner adversary), and the inner plan. The
    wrapper is responsible for keeping the transformed schedule admissible
    — or deliberately not, to exercise the checker. *)

val timely_all : ctx -> plan
(** Helper: the fully synchronous plan for [ctx] (every obligated
    process timely to every other): one group, shared by every sender. *)
