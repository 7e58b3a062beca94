type t = Bot | Val of Value.t

let bot = Bot
let v x = Val x

let compare a b =
  match a, b with
  | Bot, Bot -> 0
  | Bot, Val _ -> -1
  | Val _, Bot -> 1
  | Val x, Val y -> Value.compare x y

let equal a b = compare a b = 0

let to_value = function Bot -> None | Val x -> Some x

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)


let values_of_set s =
  Set.fold (fun x acc -> match x with Bot -> acc | Val v -> v :: acc) s []
  |> List.rev

let max_value s =
  match Set.max_elt_opt s with
  | None | Some Bot -> None
  | Some (Val x) -> Some x

let subset_of_val_bot v s =
  Set.for_all (function Bot -> true | Val x -> Value.equal x v) s
