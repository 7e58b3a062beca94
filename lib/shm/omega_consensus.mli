(** Baseline: consensus from atomic registers plus the leader failure
    detector Ω, in a known network — the route the paper's reference [4]
    takes, and the classical contrast to the anonymous pseudo-leader of
    Alg. 3.

    The implementation is single-memory Disk-Paxos: process [i] owns a
    ballot register [(mbal, bal, inp)]; a process that believes itself
    leader runs ballots [i + 1, i + n + 1, …] — announce the ballot, read
    everybody, adopt the value of the highest accepted ballot, accept, read
    everybody again, and decide through a decision register if no higher
    ballot intervened. Non-leaders poll the decision register. Termination
    needs Ω: once the oracle points every process at one correct leader,
    its next ballot succeeds. *)

type ballot = { mbal : int; bal : int; inp : Anon_kernel.Value.t option }
type reg = Dec of Anon_kernel.Value.t option | Bal of ballot

type outcome = {
  decisions : (int * Anon_kernel.Value.t * int * int) list;
      (** [(pid, value, invoked_step, decided_step)], chronological. *)
  steps : int;
  undecided : int list;  (** Non-crashed clients without a decision. *)
}

val run :
  config:Scheduler.config ->
  proposals:Anon_kernel.Value.t list ->
  oracle:(pid:int -> step:int -> int) ->
  outcome
(** [oracle] is the Ω hint (who each process currently believes is
    leader); termination requires it to eventually settle on one correct
    process for everybody. *)

val stabilizing_oracle :
  n:int -> stabilize_at:int -> leader:int -> seed:int ->
  pid:int -> step:int -> int
(** A convenience oracle: uniformly random hints before [stabilize_at],
    the fixed [leader] afterwards. *)

val check : proposals:Anon_kernel.Value.t list -> outcome ->
  Anon_giraf.Checker.violation list
(** {!Anon_giraf.Checker.check_decisions} over the decisions: validity
    against [proposals], then agreement. *)
