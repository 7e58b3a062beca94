(** Fault plans: combinators that wrap any {!Anon_giraf.Adversary.t} with
    injected message-level faults, plus clustered/cascading crash-schedule
    generators.

    The admissible injectors (duplication, extra delay, reordering) only
    touch links the environment does not obligate — they add late echo
    copies or push already-late arrivals further out — so a wrapped
    adversary keeps every timeliness promise of its declared {!Env.t}. The
    {e inadmissible} injectors deliberately break an obligation (drop a
    source's timely delivery, rotate the ESS stable source) while keeping
    the declared environment, so the independent {!Checker} must flag the
    trace; they exist to prove the checker actually detects model
    violations. *)

type inadmissible =
  | Drop_obligated of { from_round : int }
      (** From [from_round] on, every sender whose timely set covers the
          obligated processes has its delivery to one obligated receiver
          made late — no covering source remains, violating MS (and
          SYNC/ES/ESS, which all imply it) in every demanding round. *)
  | Unstable_source of { from_round : int }
      (** From [from_round] on, the round's source alternates between two
          correct senders by round parity, with every other link one round
          late (the blocking shape of [Adversary.ess_blocking]). Each round
          still has a covering source (MS holds) but no single process
          covers every round — violating exactly the ESS stability
          obligation once the alternation crosses [gst]. Start it well
          before [gst] so the algorithm cannot decide first. *)
  | Root_starvation of { from_round : int }
      (** From [from_round] on, at every {e pulse} round of a rooted
          {!Anon_giraf.Env.Dynamic} environment, every sender covering the
          obligated processes loses one timely delivery — no covering root
          remains, violating exactly the root-reachability obligation
          ({!Anon_giraf.Checker.No_root}). No-op under any other
          environment and on healed rounds. *)
  | Stability_break of { from_round : int }
      (** From [from_round] on, at every {e healed} round of a
          {!Anon_giraf.Env.Dynamic} environment, one correct sender is made
          late to one obligated receiver — violating exactly the
          stability-window obligation
          ({!Anon_giraf.Checker.Stability_violation}). No-op under any
          other environment and on pulse rounds. *)

type spec = {
  duplicate : float;  (** P(a delivery gets a late echo copy). *)
  extra_delay : float;  (** P(an already-late delivery is delayed further). *)
  max_extra : int;  (** Bound on the added delay, rounds. *)
  reorder : float;  (** P(a sender's late arrivals are permuted). *)
  inadmissible : inadmissible option;
}

val none : spec
(** All probabilities 0, no inadmissible mode: [wrap none] is the identity
    schedule. *)

val is_noop : spec -> bool

val validate : spec -> unit
(** Reject malformed specs: NaN or out-of-[\[0, 1\]] probabilities and
    negative [max_extra] raise
    {!Anon_giraf.Config_error.Invalid_config}. Called by {!wrap}. *)

val sample : ?inadmissible:inadmissible option -> Anon_kernel.Rng.t -> spec
(** Random admissible fault intensities; [inadmissible] (default [None])
    is threaded through. *)

type links = {
  source : int option;
  deliveries : (int * Anon_giraf.Adversary.delivery list) list;
}
(** A plan as per-sender links, the form every injector draws and
    rewrites in. *)

val rewrite :
  spec ->
  env:Anon_giraf.Env.t ->
  Anon_giraf.Adversary.ctx ->
  Anon_kernel.Rng.t ->
  Anon_giraf.Adversary.plan ->
  links
(** One round of the injectors of [spec] over an inner [plan] under
    [env], drawing from the RNG link by link in each sender's link order
    ({!Anon_giraf.Adversary.links}): every echo and every moved arrival
    is a link of its own, two copies of one (receiver, arrival) link
    included. *)

val wrap : spec -> Anon_giraf.Adversary.t -> Anon_giraf.Adversary.t
(** Wrap an adversary with the injectors of [spec] (via
    {!Anon_giraf.Adversary.map_plan}; the name gains a ["+faults"]
    suffix): its plan is {!Anon_giraf.Adversary.of_links} of
    {!rewrite}, every copy delivered.

    @raise Anon_giraf.Config_error.Invalid_config on a malformed [spec]
    (see {!validate}). *)

(* --- crash-schedule shapes ------------------------------------------------- *)

val burst_crashes :
  n:int -> failures:int -> at:int -> width:int -> Anon_kernel.Rng.t ->
  Anon_giraf.Crash.event list
(** [failures] distinct processes all crash inside the round window
    [\[at, at + width\]] (a correlated failure burst). Requires
    [0 <= failures <= n] and [at >= 1]. *)

val cascade_crashes :
  n:int -> failures:int -> start:int -> gap:int -> Anon_kernel.Rng.t ->
  Anon_giraf.Crash.event list
(** [failures] distinct processes crash at rounds [start], [start + gap],
    [start + 2*gap], … (a cascading failure). Requires [start >= 1] and
    [gap >= 1]. *)
