type t = int

let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash
let pp = Format.pp_print_int

(* Digits are taken from the non-positive side, where every int has a
   magnitude: negating [min_int] overflows. [p] is the largest power of
   ten not above the magnitude, at most 10^18, so it never overflows. *)
let iter_decimal f x n =
  let m = if n < 0 then (f x '-'; n) else -n in
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    f x (Char.unsafe_chr (48 - ((m / !p) mod 10)));
    p := !p / 10
  done

let render n =
  let rec width m w = if m <= -10 then width (m / 10) (w + 1) else w in
  let b = Bytes.create (if n < 0 then width n 2 else width (-n) 1) in
  let i = ref 0 in
  iter_decimal
    (fun b c ->
      Bytes.unsafe_set b !i c;
      incr i)
    b n;
  Bytes.unsafe_to_string b

(* The strings of 0 to 1023, each rendered when first asked for, so
   start-up pays for none of them. A race between domains at worst
   renders one twice. *)
let small = Array.make 1024 ""

let to_string n =
  if n >= 0 && n < Array.length small then begin
    let s = Array.unsafe_get small n in
    if String.length s > 0 then s
    else begin
      let s = render n in
      small.(n) <- s;
      s
    end
  end
  else render n

let max_of = function
  | [] -> invalid_arg "Value.max_of: empty list"
  | v :: vs -> List.fold_left max v vs

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let pp_set ppf s =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
    (Set.elements s)

let add_set b s =
  Buffer.add_char b '{';
  ignore
    (Set.fold
       (fun v first ->
         if not first then Buffer.add_char b ',';
         Buffer.add_string b (to_string v);
         false)
       s true
      : bool);
  Buffer.add_char b '}'

let set_of_list = Set.of_list
