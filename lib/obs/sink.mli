(** Pluggable event sinks.

    A sink consumes {!Event.t}s as a run executes. Built-ins: [null]
    discards, [handler] calls a function on each event (what tests
    capture events with), [jsonl] streams one JSON object per line to a
    channel (the machine-readable trace export), and [tee] fans one
    stream out to several sinks. Every file sink is a {!stream}:
    {!Trace.chrome} is the other one. No sink holds a run in memory. *)

type t

val null : t
(** Discards everything. [is_null null = true]; recorders skip event
    construction entirely for a null sink. *)

val stream :
  out_channel -> write:(Event.t -> unit) -> finish:(unit -> unit) -> t
(** The one file sink. [write] appends one event's bytes to the channel;
    [finish] appends whatever closes the document, once, at {!close}.
    The channel is flushed on every 256th event and by {!flush}; an
    [at_exit] hook closes every stream still open, so a run that ends in
    [exit] or an uncaught exception still leaves a whole document on
    disk. *)

val jsonl : out_channel -> t
(** A {!stream} writing [Json.to_string (Event.to_json ev)] plus a
    newline per event, with nothing to finish: a flush at any instant
    leaves whole lines on disk. *)

val handler : (Event.t -> unit) -> t
(** Calls the function on every event. Never null, buffers nothing. *)

val tee : t list -> t

val is_null : t -> bool

val emit : t -> Event.t -> unit

val flush : t -> unit
(** Flushes the channels of the open streams in [t] (no-op for the
    rest).
    @raise Sys_error when a channel cannot be written. *)

val close : t -> unit
(** Finishes, flushes and closes every stream in [t] and detaches it
    from the exit hook. Idempotent; no-op for non-stream sinks.
    @raise Sys_error with the first stream that could not be written;
    every stream is closed all the same. *)
