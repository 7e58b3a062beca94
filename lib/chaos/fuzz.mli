(** Randomized configuration fuzzing with counterexample shrinking.

    A campaign samples {!Scenario.t} cases, executes each through the
    in-repo runners, and checks the resulting trace with the independent
    {!Anon_giraf.Checker}. The first violating case is greedily shrunk
    (fewer processes, shorter horizon, fewer crashes/ops, weaker fault
    plan) while it keeps exhibiting a violation of the same kind, and the
    minimal counterexample can be serialized as a JSON repro file and
    replayed bit-for-bit (every run is a pure function of the case). *)

val run_case :
  ?recorder:Anon_obs.Recorder.t -> Scenario.t -> Anon_giraf.Checker.violation list
(** Execute one case and return every environment + semantic violation the
    checker finds ([] on a clean run). Runs inside its own kernel interner
    scope ({!Anon_exec.Pool.isolate}): the verdict is a pure function of
    the case, whatever ran before in the process. [recorder] (default off)
    is threaded into the underlying runner — a campaign never sets it; it
    exists so a single replay (witness emission, [--replay]) can capture
    events/metrics for the counterexample timeline. *)

val violation_strings : Anon_giraf.Checker.violation list -> string list
(** Rendered via {!Anon_giraf.Checker.pp_violation} — the stable form
    stored in repro files and compared on replay. *)

type finding = {
  original : Scenario.t;  (** As sampled. *)
  original_violations : Anon_giraf.Checker.violation list;
  case : Scenario.t;  (** After shrinking. *)
  violations : Anon_giraf.Checker.violation list;
  explored : int;  (** Shrink candidates executed. *)
}

val shrink :
  Scenario.t -> Anon_giraf.Checker.violation list -> Scenario.t * Anon_giraf.Checker.violation list * int
(** [shrink case vs] greedily minimizes [case]; a candidate is accepted
    only if re-running it still yields a violation sharing a constructor
    with [vs]. Returns the fixpoint and the number of candidates tried. *)

type report = { runs_done : int; finding : finding option }

val campaign :
  ?algo:Scenario.algo ->
  ?inadmissible:bool ->
  ?dynamic:bool ->
  ?churn:bool ->
  runs:int ->
  seed:int ->
  unit ->
  report
(** Sample-and-check up to [runs] cases (deterministic in [seed]); stops at
    the first violation, which is returned shrunk. [inadmissible] (default
    [false]) arms a model-violating fault mode in every case — the
    campaign is then expected to find a violation (it validates the
    checker, not the algorithms). [dynamic]/[churn] (defaults [false])
    sample dynamic-graph environment overrides and join/leave schedules —
    see {!Scenario.sample}.

    @raise Anon_giraf.Config_error.Invalid_config when [runs < 0]. *)

val repro_json : finding -> Anon_obs.Json.t
(** The repro file's JSON: the shrunk [case] with its violations, the
    original, and the shrink count. {!replay} reads it back. *)

type replay = {
  case : Scenario.t;
  expected : string list;  (** Violations stored in the repro file. *)
  actual : Anon_giraf.Checker.violation list;
  matches : bool;  (** Reproduced violations identical to [expected]. *)
}

val replay_json : Anon_obs.Json.t -> (replay, string) result

val replay : path:string -> (replay, string) result
(** Load a repro file, re-run its (shrunk) case, and compare the rendered
    violations with the stored ones. *)
