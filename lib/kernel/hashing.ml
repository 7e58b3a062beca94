type t = int64

let init = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let byte h c =
  Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

let string h s =
  let acc = ref h in
  String.iter (fun c -> acc := byte !acc c) s;
  !acc

let int h n =
  let acc = ref h in
  for shift = 0 to 7 do
    let b = Int64.to_int (Int64.logand (Int64.shift_right_logical (Int64.of_int n) (shift * 8)) 0xffL) in
    acc := byte !acc (Char.chr b)
  done;
  !acc

let to_hex h = Printf.sprintf "%016Lx" h

module Fast = struct
  type h = int

  let init = 0x1cf29ce484222325
  let prime = 0x100000001b3
  let byte h c = (h lxor Char.code c) * prime

  let string h s =
    let acc = ref h in
    for i = 0 to String.length s - 1 do
      acc := (!acc lxor Char.code (String.unsafe_get s i)) * prime
    done;
    !acc
end
