(** Typed observability events.

    One constructor per observable fact in the simulators; every event
    round-trips through {!Json} so that a JSONL trace can be replayed or
    audited offline. All ids are simulator-side process ids — the events
    describe the {e execution}, never leak into the anonymous algorithms.

    Taxonomy (the ["ev"] tag of the JSON encoding):
    - lifecycle: [run_start], [run_end]
    - rounds: [round_start], [round_end]
    - messaging: [broadcast], [deliver]
    - protocol: [decide], [crash], [churn], [leader]
    - rsm layer: [commit]
    - weak-set service: [ws_add], [ws_add_done], [ws_get] *)

type t =
  | Run_start of { algo : string; n : int; seed : int }
  | Run_end of { rounds : int; decided : bool }
  | Round_start of { round : int }
  | Round_end of { round : int; senders : int; delivered : int; timely : int }
  | Broadcast of { pid : int; round : int; size : int }
  | Deliver of { sender : int; receiver : int; round : int; arrival : int }
      (** [round] is the sender round; timely iff [arrival = round]. *)
  | Decide of { pid : int; round : int; value : int }
  | Commit of { instance : int; round : int; value : int }
      (** The RSM layer commits instance [instance]'s decided value into
          the log at global round [round] (see [Anon_rsm]). [instance] is a
          log position, not a process id. *)
  | Crash of { pid : int; round : int }
  | Churn of { pid : int; round : int; rejoin : bool }
      (** A process leaves ([rejoin = false]) or rejoins with empty state
          ([rejoin = true]) at [round]. *)
  | Leader of { pid : int; round : int; leader : bool }
      (** Pseudo-leader flag {e transition} (Alg. 3 line 15): emitted only
          when a process's self-leader estimate changes. *)
  | Ws_add of { pid : int; round : int; value : int }
  | Ws_add_done of { pid : int; round : int; value : int }
  | Ws_get of { pid : int; round : int; size : int }

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
