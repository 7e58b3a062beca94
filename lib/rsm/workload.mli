(** Open-loop proposal workloads for the multi-shot consensus service.

    A workload is a deterministic stream of [proposals] client commands:
    proposal [j] arrives at round [1 + ⌊j / rate⌋] (open-loop — arrivals
    never wait for the service) carrying a value drawn from a skewed
    distribution ([skew] probability of the hot value, uniform over
    [value_range] otherwise). Values and arrivals are pure functions of
    [(seed, j)], so any sharding or execution order reproduces the same
    stream.

    Sharding assigns proposal [j] to shard [j mod shards] — round-robin,
    so every shard sees the same arrival-rate profile. Shards are
    {e independent log partitions}: proposals in different shards never
    contend for the same consensus instance, which is what lets
    [Load] fan them out over [Anon_exec.Pool] without coordination. The
    shard count is a workload parameter (not the job count): reports are
    a pure function of the workload, byte-identical at any [jobs]. *)

type t = private {
  proposals : int;  (** Total proposal count, [>= 1]. *)
  rate : float;  (** Offered load, proposals per round, finite [> 0]. *)
  skew : float;  (** Probability of drawing [hot_value], in [\[0,1\]]. *)
  value_range : int;  (** Cold values are uniform in [\[0, value_range)]. *)
  hot_value : Anon_kernel.Value.t;
  shards : int;  (** Independent log partitions, [>= 1]. *)
  seed : int;
}

val make :
  ?where:string ->
  ?skew:float ->
  ?value_range:int ->
  ?hot_value:Anon_kernel.Value.t ->
  ?shards:int ->
  proposals:int ->
  rate:float ->
  seed:int ->
  unit ->
  t
(** Validates every field and raises {!Anon_giraf.Config_error.Invalid_config}
    (component [where], default ["Workload.make"]) on: [proposals < 1],
    a rate that is NaN, infinite or [<= 0], a rate whose last arrival
    [1 + (proposals - 1) / rate] does not fit in an int, a skew that is
    NaN or outside [\[0,1\]], [value_range < 1], or [shards < 1].
    Defaults: [skew = 0.], [value_range = 16], [hot_value = 0],
    [shards = 1]. *)

type proposal = { id : int; arrival : int; value : Anon_kernel.Value.t }
(** [id] is the global proposal index in [\[0, proposals)]; [arrival] the
    round it enters the queue; [value] the proposed command. *)

val arrival : t -> int -> int
(** [arrival w j] is [1 + ⌊j / rate⌋]. *)

val value : t -> int -> Anon_kernel.Value.t
(** The value of proposal [j] — deterministic in [(seed, j)],
    shard-independent. *)

val shard_of : t -> int -> int
(** [j mod shards]. *)

val shard_proposals : t -> int -> proposal list
(** All proposals of one shard, ascending id (hence ascending arrival). *)

val pp : Format.formatter -> t -> unit
