(** Fixed-bucket log-scale histogram (HDR-style).

    A histogram is a fixed array of {!bucket_count} integer bucket counts
    plus exact count/min/max — O(buckets) memory however many samples are
    observed. Buckets are geometric with 16 sub-buckets per power-of-two
    octave, so reconstructed samples (percentiles, moments) carry at most
    ~4.4% relative quantization error; [count], [min_value] and
    [max_value] are exact.

    {!merge} is associative {e and} commutative in the byte-identical
    sense: it only adds integer counts and takes float min/max, so any
    grouping or ordering of the same snapshots produces structurally
    equal results. This is what lets batches and load shards merge their
    metric snapshots deterministically, in any order.

    Values [<= 0] (and non-finite values) land in a dedicated zero
    bucket and contribute [0.0] to reconstructed moments; values beyond
    [2^43] land in an overflow bucket and are reported via the exact
    maximum. *)

type t

val bucket_count : int
(** Fixed storage size (in buckets) of every histogram. *)

val create : unit -> t
val clear : t -> unit

val copy : t -> t
(** Snapshot copy: further {!observe}s on the original leave it alone. *)

val observe : t -> float -> unit
(** O(log sub-buckets): one frexp, a 4-step binary search, one add. *)

val count : t -> int
val is_empty : t -> bool

val min_value : t -> float
(** Exact sample minimum; [+inf] when empty. *)

val max_value : t -> float
(** Exact sample maximum; [-inf] when empty. *)

val mean : t -> float
(** Bucket-reconstructed mean, clamped into [[min, max]]. [0.0] when
    empty. *)

val stddev : t -> float
(** Bucket-reconstructed standard deviation ([0.0] for [count <= 1]). *)

val percentile : t -> float -> float
(** Nearest-rank percentile over bucket representatives, clamped into
    [[min, max]].
    @raise Invalid_argument on an empty histogram or [p] outside
    [\[0,100\]]. *)

val merge : t list -> t
(** Associative, commutative, deterministic; the result is fresh. *)

val equal : t -> t -> bool

val summary : t -> Anon_kernel.Stats.summary option
(** [None] when empty; otherwise a {!Anon_kernel.Stats.summary} with
    exact count/min/max and bucket-reconstructed mean/stddev/p50/p95. *)
