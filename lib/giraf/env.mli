(** Environment specifications (§2.3 of the paper).

    An environment is a round-based property restricting message arrivals;
    it is what the adversary must satisfy and what the trace checker
    verifies. [gst] parameters make the "eventually" in ES/ESS concrete so
    generated schedules can be checked mechanically. *)

type t =
  | Sync  (** Every process has a timely link in every round. *)
  | Ms  (** Moving source: every round has some source with a timely link. *)
  | Es of { gst : int }
      (** Eventually synchronous: MS always, and from round [gst] on every
          correct process has a timely link in every round. *)
  | Ess of { gst : int }
      (** Eventually stable source: MS always, and from round [gst] on the
          {e same} correct process is a source in every round. *)
  | Async
      (** No timeliness guarantee at all (messages still reliable). Used
          for FLP-style experiments; no consensus liveness expected. *)
  | Dynamic of { stability : int; rooted : bool }
      (** Per-round communication graphs with short-lived stability (after
          Winkler et al., arXiv:1602.05852): rounds are grouped into windows
          of [stability]. The first round of each window is a
          {e reconfiguration pulse} — the graph may be rewired arbitrarily;
          if [rooted], some correct process must still reach every obligated
          receiver timely (a covering root). The remaining [stability - 1]
          rounds of the window are {e healed}: every correct sender is
          timely to every obligated receiver. [stability = 1] with [rooted]
          is the pure rotating-root regime (every round a pulse); large
          [stability] approaches ES-from-round-2. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val pulse : stability:int -> round:int -> bool
(** Whether [round] opens a stability window (rounds [1], [1 + stability],
    [1 + 2*stability], ...). Requires [stability >= 1]. *)

(** What one round owes its obligated receivers (§2.3): nothing, a
    source (some sender timely to all of them), every correct sender
    timely to all of them, or a stable source (one correct process that is
    the source of every round from here on, until it halts).

    {v
                        before gst / pulse    from gst on / healed
    Sync                Every_sender          Every_sender
    Ms                  A_source              A_source
    Es gst              A_source              Every_sender
    Ess gst             A_source              Stable_source
    Dynamic (rooted)    A_source              Every_sender
    Dynamic (unrooted)  Nothing               Every_sender
    Async               Nothing               Nothing
    v} *)
type owed = Nothing | A_source | Every_sender | Stable_source

val owes : t -> round:int -> owed
(** The one statement of the table above that the adversaries, the model
    checker's plan enumeration and the fault gates read;
    {!Checker.check_env} judges traces on its own. *)

val gst : t -> int option
(** The round from which the eventual guarantee holds, if any. *)

val validate : where:string -> t -> unit
(** Reject an ES/ESS [gst] or a [Dynamic] [stability] below 1, which
    {!of_string} would not parse either.
    @raise Config_error.Invalid_config naming [where]. *)

val of_string : string -> (t, string) result
(** Parse a CLI spelling: [sync], [ms], [async], [es:GST], [ess:GST],
    [dynamic:S] (rooted) or [dynamic:S:unrooted]; [es]/[ess] without a GST
    default to 10. *)
