module Hashing = Anon_kernel.Hashing

type t = { name : string; edge : n:int -> round:int -> src:int -> dst:int -> bool }

let name t = t.name

(* The shortest of 15, 16 and 17 significant digits that reads back as
   [x]: short rates print as they were typed, and every rate survives
   the round trip through its clause. *)
let float_clause x =
  let at digits = Printf.sprintf "%.*g" digits x in
  match List.find_opt (fun s -> float_of_string s = x) [ at 15; at 16 ] with
  | Some s -> s
  | None -> at 17
let edge t = t.edge

(* Deterministic per-(salt, ints) hash — topology must be a pure function
   of the round so repro replays rebuild the identical graph sequence. *)
let det ~salt xs =
  let acc = List.fold_left Hashing.int (Hashing.string Hashing.init salt) xs in
  Int64.to_int (Int64.logand acc 0x3FFF_FFFF_FFFF_FFFFL)

let at_least_one ~where name v =
  if v < 1 then Config_error.fail ~where (Printf.sprintf "%s must be >= 1 (got %d)" name v)

let rotating_root () =
  let edge ~n ~round ~src ~dst =
    let root = (round - 1) mod max 1 n in
    src = root || dst = root
  in
  { name = "rotating-root"; edge }

let spanning_star () =
  let edge ~n ~round ~src ~dst =
    let center = det ~salt:"star" [ 0; round ] mod max 1 n in
    src = center || dst = center
  in
  { name = "spanning-star"; edge }

let t_interval ~t () =
  at_least_one ~where:"Topology.t_interval" "t" t;
  let edge ~n ~round ~src ~dst =
    let interval = (round - 1) / t in
    let center = det ~salt:"interval" [ t; interval ] mod max 1 n in
    src = center || dst = center
  in
  { name = Printf.sprintf "t-interval:%d" t; edge }

let partition_pulse ~period () =
  at_least_one ~where:"Topology.partition_pulse" "period" period;
  let edge ~n:_ ~round ~src ~dst =
    if (round - 1) mod period = 0 then
      (* Pulse round: split by pid parity, no cross-partition links. *)
      src mod 2 = dst mod 2
    else true
  in
  { name = Printf.sprintf "partition-pulse:%d" period; edge }

let random_graph ~density () =
  if not (density >= 0. && density <= 1.) then
    Config_error.fail ~where:"Topology.random_graph"
      (Printf.sprintf "density must be in [0,1] (got %g)" density);
  let threshold = int_of_float (density *. 1_000_000.) in
  let edge ~n:_ ~round ~src ~dst =
    det ~salt:"random" [ 0; round; src; dst ] mod 1_000_000 < threshold
  in
  { name = "random:" ^ float_clause density; edge }
