type t = int

let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash
let pp = Format.pp_print_int
let to_string = string_of_int

let max_of = function
  | [] -> invalid_arg "Value.max_of: empty list"
  | v :: vs -> List.fold_left max v vs

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let pp_set ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
    (Set.elements s)

let set_of_list = Set.of_list
