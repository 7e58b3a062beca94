(* The splitmix64 state lives unboxed in 8 bytes, so a draw allocates
   nothing: every [int64] below stays in a register. The byte order is
   the host's, and only this module reads it. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let make seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* splitmix64 finalizer: good avalanche, passes BigCrush when driven by a
   Weyl sequence. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let bits64 t = next t
let split t = of_state (mix (next t))

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny w.r.t. 2^62. *)
  let x = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  x mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next t) 1L = 1L

let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0 (* 2^53 *)

let float t bound = bound *. unit_float t

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let subset t ~p l = List.filter (fun _ -> chance t p) l
