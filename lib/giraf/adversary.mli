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
  senders : int list;  (** Broadcasting normally this round (alive, not halted, not crashing). *)
  obligated : int list;
      (** Correct, non-halted processes — the receivers a source must reach
          timely. *)
  correct : int list;  (** Statically correct processes. *)
  alive : int list;  (** All processes still taking steps (receivers). *)
}

type delivery = { receiver : int; arrival : int }
(** [arrival = ctx.round] means timely; otherwise [arrival > ctx.round]. *)

type plan = {
  source : int option;
      (** The sender the adversary designates as this round's source
          (recorded in the trace; the checker re-verifies coverage). *)
  deliveries : (int * delivery list) list;
      (** Per sender, the delivery schedule to every receiver except
          itself (self-delivery is implicit and always timely). *)
}

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
(** Helper: the fully synchronous plan for [ctx] (every sender timely to
    every alive receiver). *)
