(** The dispatch-backend seam.

    Two kinds of backend execute the same algorithm functors
    ({!Intf.ALGORITHM} / {!Intf.SERVICE}):

    - {b lockstep} — {!Step_core} driven by {!Runner} and the model
      checker: rounds advance globally, and deliveries follow an
      adversary plan. This is the Tier-1 and model-checking path.
    - {b live} — [Anon_live]: every process fires its end-of-rounds at
      its own pace, packets cross a faulty transport with their own due
      times, and round advancement is driven by timeouts with adaptive
      backoff (synchrony is discovered, not scripted). Both are
      deterministic: the live loop takes its events from a {!Calendar}.

    What the backends must agree on {e exactly} — and what this module
    therefore owns — is the mailbox semantics of Alg. 1: how a process's
    undrained arrivals become the inbox of its next [compute]. One
    mailbox type and one reader ({!take}) live here and nowhere else,
    which is what makes the zero-fault live-vs-lockstep differential
    suite an equality of decisions rather than a family resemblance.

    {b Canonical order.} A mailbox holds [(arrival, sent, msg)] entries,
    and a reader sees them in ascending [arrival], then ascending
    [sent], then ascending message. Equal messages keep the order they
    were filed in: {!Round.file} lists them by descending sender (the
    order the lockstep dispatch schedules them, newest first), {!insert}
    puts the newest first. Entries are bucketed by arrival round. A
    lockstep bucket is kept in canonical order and never sorted on
    read: in lockstep every live process takes all arrivals [<= k-1] at
    round [k], and reads exactly one bucket. A live bucket is filed in
    arrival order and sorted once, when it is read. *)

type 'msg t
(** The mailboxes of processes [0 .. n-1]: each process's undrained
    arrivals. Mutable: {!copy} before branching. A mailbox is filled
    either by {!Round.file} or by {!insert}, never by both. *)

val create : n:int -> 'msg t

val copy : 'msg t -> 'msg t
(** O(n): the copies share their entries, and a change to either never
    shows in the other, provided every {!Round.file} into either uses
    one {!Round.t}. *)

val clear : 'msg t -> int -> unit
(** [clear mb p] empties process [p]'s mailbox. *)

val length : 'msg t -> int -> int
(** Number of undrained entries of a process. *)

val to_list : compare:('msg -> 'msg -> int) -> 'msg t -> int -> (int * int * 'msg) list
(** Every undrained [(arrival, sent, msg)] of a process, in canonical
    order. *)

val insert : 'msg t -> int -> arrival:int -> sent:int -> 'msg -> unit
(** The live backend's filing of one packet into a process's mailbox,
    [arrival >= sent]: one cons onto its arrival bucket. Among equal
    entries the newest reads first. *)

val take :
  compare:('msg -> 'msg -> int) ->
  'msg t ->
  int ->
  round:int ->
  'msg list * (int * 'msg) list Lazy.t
(** [take ~compare mb p ~round] removes process [p]'s entries with
    [arrival <= round] and returns [(current, fresh)]: [fresh] is their
    [(sent, msg)] list in canonical order (late messages included, for
    algorithms that read earlier-round mailboxes), and [current] is the
    deduplicated round-[round] message set (Alg. 1 line 10) in ascending
    order, keeping of each run of equal messages the copy [fresh] lists
    last. The caller guarantees the process's own round-[round] message
    is among the arrivals (self-delivery is implicit and always timely).

    [fresh] is built only when forced ([Lazy.from_val \[\]] when nothing
    arrived). Forcing it later, after further {!Round.file}s or
    {!insert}s into [mb] or its copies, yields the same list: the taken
    buckets have left [p]'s mailbox, and a filing conses in place only
    onto buckets it made itself (every {!Round.reset} starts a new
    generation), so a taken bucket never changes, even one a {!copy}
    still holds. A lazy value must not be forced from two domains at
    once; the backends hand each one to a single [compute], which
    forces it at most once.

    On lockstep buckets [take] costs the number of entries taken plus
    the number of buckets kept, and its only message comparisons are the
    adjacent checks on round [round]'s entries; [fresh], when forced,
    costs the number of entries taken. Each bucket {!insert} filled is
    stable-sorted once, when it is read. *)

(** One lockstep round's deliveries, filed into the receivers' mailboxes
    in one ordering. The dispatch records each delivery as it happens;
    {!file} then orders the round's broadcasts once and files every
    delivery with one cons. A [Round.t] is scratch: every {!reset}
    forgets the previous round, so copies of a core may share one. *)
module Round : sig
  type 'msg boxes := 'msg t
  type 'msg t

  val create : n:int -> 'msg t
  (** Room for [4 * n] deliveries; more grows it. *)

  val reset : 'msg t -> sent:int -> unit
  (** Start recording round [sent]'s deliveries. *)

  val deliver : 'msg t -> sender:int -> receiver:int -> arrival:int -> 'msg -> unit
  (** Record one delivery of [sender]'s round broadcast, [arrival >= sent].
      A sender's deliveries must be recorded contiguously, all carrying
      its one message; senders recorded later read first among equal
      messages. *)

  val file : compare:('msg -> 'msg -> int) -> 'msg t -> 'msg boxes -> unit
  (** Order the recorded broadcasts by message and file every recorded
      delivery into its receiver's mailbox. The receivers must hold no
      entry sent after round [sent]. *)
end
