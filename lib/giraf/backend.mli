(** The dispatch-backend seam.

    Two kinds of backend execute the same algorithm functors
    ({!Intf.ALGORITHM} / {!Intf.SERVICE}):

    - {b lockstep} — {!Step_core} driven by {!Runner} and the model
      checker: rounds advance globally, and deliveries follow an
      adversary plan. This is the Tier-1 and model-checking path.
    - {b unsynchronized} — {!Shell} under {!Skew_runner}, [Ms_emulation]
      and [Anon_live]: every process fires its end-of-rounds at its own
      pace, each copy arrives on its own (a relay, an add log, a faulty
      transport), and [Anon_live] discovers synchrony by timeouts. All
      are deterministic: each loop takes its events from a {!Calendar}.

    What the backends must agree on {e exactly} — and what this module
    therefore owns — is the mailbox semantics of Alg. 1: how a process's
    undrained arrivals become the inbox of its next [compute]. One
    mailbox type and one reader ({!take}) live here and nowhere else,
    which is what makes the zero-fault live-vs-lockstep differential
    suite an equality of decisions rather than a family resemblance.

    {b Canonical order.} A mailbox holds [(arrival, sent, msg)] entries,
    and a reader sees them in ascending [arrival], then ascending
    [sent], then ascending message. Equal messages keep the order they
    were filed in: {!file} lists them by descending sender (the order
    the lockstep dispatch sends them, newest first), {!insert} puts the
    newest first.

    {b Two filings.} {!file} files a dispatched lockstep round
    ({!Dispatch.stats.groups}) once for all its receivers: one shared
    filing holds each (sender, group) of the round as one entry with its
    receiver set, and each receiver's mailbox references the filing
    once; a reader selects the entries that name it. A lockstep filing
    is in canonical order and never sorted on read: in lockstep every
    live process takes all arrivals [<= k-1] at round [k]. {!insert}
    files one copy into one mailbox, bucketed by arrival round; an
    {!insert}ed bucket is filed in arrival order and sorted once, when
    it is first read; after a {!peek}, {!insert} files into it in
    order. *)

type 'msg t
(** The mailboxes of processes [0 .. n-1]: each process's undrained
    arrivals. Mutable: {!copy} before branching. A mailbox is filled
    either by {!file} or by {!insert}, never by both. *)

val create : n:int -> 'msg t

val copy : 'msg t -> 'msg t
(** O(n): the copies share their entries, and a change to either never
    shows in the other. *)

val clear : 'msg t -> int -> unit
(** [clear mb p] empties process [p]'s mailbox. *)

val length : 'msg t -> int -> int
(** Number of undrained entries of a process. *)

val to_list : compare:('msg -> 'msg -> int) -> 'msg t -> int -> (int * int * 'msg) list
(** Every undrained [(arrival, sent, msg)] of a process, in canonical
    order. *)

val insert :
  compare:('msg -> 'msg -> int) -> 'msg t -> int -> arrival:int -> sent:int -> 'msg -> unit
(** The unsynchronized backends' ({!Shell}'s) filing of one copy into a
    process's mailbox, [arrival >= sent]: one cons onto its arrival
    bucket, or an ordered insertion once {!peek} has read it. Among
    equal entries the newest reads first. *)

val peek :
  compare:('msg -> 'msg -> int) -> 'msg t -> int -> arrival:int -> sent:int -> 'msg list
(** The round-[sent] messages {!insert} filed with [arrival],
    deduplicated and ascending as {!take}'s [current]; nothing is
    removed. *)

val take : compare:('msg -> 'msg -> int) -> 'msg t -> int -> round:int -> 'msg Intf.inbox
(** [take ~compare mb p ~round] removes process [p]'s entries with
    [arrival <= round] and returns them as the inbox of [p]'s next
    [compute]: [fresh] is their [(sent, msg)] list in canonical order
    (late messages included, for algorithms that read earlier-round
    mailboxes), and [current] is the deduplicated round-[round] message
    set (Alg. 1 line 10) in ascending order, keeping of each run of
    equal messages the copy [fresh] lists last. The caller guarantees
    the process's own round-[round] message is among the arrivals
    (self-delivery is implicit and always timely).

    [fresh] is built only when forced ([Lazy.from_val \[\]] when nothing
    arrived). Forcing it later, after further {!file}s or
    {!insert}s into [mb] or its copies, yields the same list: it reads
    only what [p] held up to round [round] then, and neither buckets nor
    filings change once built, even while a {!copy} still holds them. A lazy value must not be
    forced from two domains at once; the backends hand each one to a
    single [compute], which forces it at most once.

    On a lockstep mailbox [current] costs the round's timely entries
    that name a receiver plus one, and its only message comparisons are
    the adjacent checks on the round-[round] messages [p] holds;
    [fresh], when forced, costs the entries of the filings taken that
    name a receiver. Besides [current]'s list, a lockstep [take]
    allocates the inbox and [fresh]'s suspension, and a share list only
    where it drops a share ahead of one it keeps. Each bucket {!insert}
    filled is stable-sorted once, when it is first read. *)

val file :
  compare:('msg -> 'msg -> int) ->
  'msg t ->
  sent:int ->
  'msg Dispatch.outbound list ->
  (int * Adversary.group list) list ->
  unit
(** [file ~compare mb ~sent outgoing groups] files round [sent]'s
    broadcasts: each sender of [outgoing] (ascending pids) receives its
    own message, timely, and every member of one of its [groups] but the
    sender receives it at the group's arrival ([>= sent]); [groups]
    lists the senders of [outgoing] in its order, as
    {!Dispatch.stats.groups} does. The broadcasts are ordered once, by
    message and equal messages by descending sender, with the
    comparisons of [List.stable_sort]. As in lockstep, no
    receiver may hold an entry sent after round [sent], nor have taken
    round [sent] or a later one.

    @raise Invalid_argument when [groups] does not list the senders of
    [outgoing], or when a receiver has taken round [sent] or a later
    one, or holds an {!insert}ed entry; receivers filed before it keep
    their share. *)
