module Hashing = Anon_kernel.Hashing

type t = { name : string; edge : n:int -> round:int -> src:int -> dst:int -> bool }

let name t = t.name
let edge t = t.edge

(* Deterministic per-(salt, ints) hash — topology must be a pure function
   of the round so repro replays rebuild the identical graph sequence. *)
let det ~salt xs =
  let acc = List.fold_left Hashing.int (Hashing.string Hashing.init salt) xs in
  Int64.to_int (Int64.logand acc 0x3FFF_FFFF_FFFF_FFFFL)

let rotating_root ?(period = 1) () =
  if period < 1 then invalid_arg "Topology.rotating_root: period must be >= 1";
  let edge ~n ~round ~src ~dst =
    let root = (round - 1) / period mod max 1 n in
    src = root || dst = root
  in
  { name = Printf.sprintf "rotating-root(p=%d)" period; edge }

let spanning_star ?(seed = 0) () =
  let edge ~n ~round ~src ~dst =
    let center = det ~salt:"star" [ seed; round ] mod max 1 n in
    src = center || dst = center
  in
  { name = Printf.sprintf "spanning-star(seed=%d)" seed; edge }

let t_interval ~t () =
  if t < 1 then invalid_arg "Topology.t_interval: t must be >= 1";
  let edge ~n ~round ~src ~dst =
    let interval = (round - 1) / t in
    let center = det ~salt:"interval" [ t; interval ] mod max 1 n in
    src = center || dst = center
  in
  { name = Printf.sprintf "t-interval(t=%d)" t; edge }

let partition_pulse ~period () =
  if period < 1 then invalid_arg "Topology.partition_pulse: period must be >= 1";
  let edge ~n:_ ~round ~src ~dst =
    if (round - 1) mod period = 0 then
      (* Pulse round: split by pid parity, no cross-partition links. *)
      src mod 2 = dst mod 2
    else true
  in
  { name = Printf.sprintf "partition-pulse(p=%d)" period; edge }

let random_graph ?(seed = 0) ~density () =
  if not (density >= 0. && density <= 1.) then
    invalid_arg "Topology.random_graph: density must be in [0,1]";
  let threshold = int_of_float (density *. 1_000_000.) in
  let edge ~n:_ ~round ~src ~dst =
    det ~salt:"random" [ seed; round; src; dst ] mod 1_000_000 < threshold
  in
  { name = Printf.sprintf "random(seed=%d,density=%.2f)" seed density; edge }
