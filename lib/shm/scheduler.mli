(** Interleaving scheduler for shared-memory programs.

    Register accesses are atomic global-state updates, so every run is
    linearizable by construction; the adversary only controls the
    interleaving (which process takes the next step) and crashes. The step
    counter is the logical clock used in operation records. *)

type policy =
  | Round_robin
  | Random_steps
  | Bursty of int
      (** A random process runs up to the given number of consecutive
          steps before the scheduler re-draws — produces long solo runs
          (obstruction-freedom-style schedules). *)

type config = {
  n : int;  (** Number of client processes. *)
  policy : policy;
  seed : int;
  max_steps : int;
  crash_at : (int * int) list;  (** [(pid, step)]: pid halts at that step. *)
}

val default_config : ?policy:policy -> ?seed:int -> ?max_steps:int ->
  ?crash_at:(int * int) list -> n:int -> unit -> config

type 'r completion = {
  pid : int;
  op_index : int;  (** Index in this client's operation sequence. *)
  result : 'r;
  invoked : int;  (** Step of the operation's first action. *)
  completed : int;  (** Step of its [Done]. *)
}

type 'r outcome = {
  completions : 'r completion list;  (** Chronological. *)
  steps : int;
  pending : int list;
      (** Clients with an unfinished operation at the end, including
          clients that crashed mid-operation (whose partial effects may be
          visible). *)
}

val run :
  config:config ->
  registers:'v array ->
  ?oracle:(pid:int -> step:int -> int) ->
  clients:(pid:int -> op_index:int -> ('v, 'r) Program.t option) ->
  unit ->
  'r outcome
(** Execute until every client's [clients] generator returns [None] (and
    all operations finished), or [max_steps] elapse. [oracle] answers
    [Program.Query] steps (default: constantly 0). The [registers] array is
    mutated in place and left in its final state. *)
