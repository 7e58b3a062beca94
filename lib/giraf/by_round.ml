(* Schedule events grouped by round once, when a schedule is built. A
   round's lookup raises nothing, and one without events, the common
   case, allocates nothing. [Crash] indexes crashes by their round,
   [Churn] leaves and rejoins by theirs. *)

module Rounds = Map.Make (Int)

type 'a t = 'a list Rounds.t

(* [evs] grouped by [round_of], keeping their order within a round;
   events whose [round_of] is [None] are left out. *)
let index round_of evs =
  List.fold_right
    (fun ev m ->
      match round_of ev with
      | None -> m
      | Some r -> Rounds.update r (fun evs -> Some (ev :: Option.value ~default:[] evs)) m)
    evs Rounds.empty

let find t round = match Rounds.find_opt round t with Some evs -> evs | None -> []
