(** Wire-level fault plans for the live transport.

    {!Fault.spec} perturbs an adversary's {e delivery plan} — it speaks
    rounds, and lives inside the lockstep simulator. This module is its
    twin for the live backend ([Anon_live]): faults that happen to
    {e packets on the wire}, in seconds, below the algorithm's round
    abstraction. A faulty transport applies, per transmitted copy:

    - {b drop} — the copy is lost; the transport's reliability layer
      retransmits with bounded exponential backoff, so the paper's
      reliable-link model is preserved and a drop manifests as latency,
      never as silent message loss;
    - {b duplicate} — a late echo copy is also delivered (anonymity makes
      duplicates semantically invisible; they stress dedup and pacing);
    - {b delay} — extra wire latency, uniform in [[0, max_delay_s]];
    - {b sever} — links absent from a {!Anon_giraf.Topology.t} at the
      copy's send round are maximally delayed, reusing the lockstep
      dynamic-graph vocabulary at the wire.

    Reordering needs no knob: independent per-copy delays across real
    channels reorder packets on their own.

    Specs are validated with {!Anon_giraf.Config_error} and parsed from
    the CLI syntax [drop:P,dup:P,delay:P[:MAX_S],sever:NAME]. *)

type spec = {
  drop : float;  (** P(a transmitted copy is lost on the wire). *)
  duplicate : float;  (** P(a delivered copy gets an echo duplicate). *)
  delay : float;  (** P(a copy gets extra wire latency). *)
  max_delay_s : float;  (** Bound on the extra latency, seconds. *)
  sever : Anon_giraf.Topology.t option;
      (** Links absent at the copy's send round are maximally delayed. *)
}

val none : spec
(** All probabilities zero, no severing: the faultless wire. *)

val is_noop : spec -> bool

val validate : where:string -> spec -> spec
(** Returns the spec if every probability is finite and in [[0,1]] and
    [max_delay_s] is finite and [>= 0]; raises
    {!Anon_giraf.Config_error.Invalid_config} otherwise. *)

val of_string : string -> spec
(** Parses the CLI syntax: comma-separated [drop:P], [dup:P], [delay:P]
    or [delay:P:MAX_S], [sever:NAME] clauses in any order, each at most
    once; [""] and ["none"] give {!none}. [NAME] is one of [rotating-root],
    [spanning-star], [t-interval:<t>], [partition-pulse:<p>],
    [random:<density>] ({!Anon_giraf.Topology.name}). Raises
    {!Anon_giraf.Config_error.Invalid_config} on unknown or malformed
    clauses, on a sever argument the topology refuses ([t] or [p] below
    1, a density outside [[0,1]]), and validates the result. *)

val to_string : spec -> string
(** Canonical CLI syntax for the spec (["none"] for a no-op), suitable
    for reports and round-tripping through {!of_string} (a severed
    topology renders as its [sever:NAME] clause). *)

val pp : Format.formatter -> spec -> unit
