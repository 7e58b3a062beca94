open Anon_kernel

type t = {
  proposals : int;
  rate : float;
  skew : float;
  value_range : int;
  hot_value : Value.t;
  shards : int;
  seed : int;
}

let make ?(where = "Workload.make") ?(skew = 0.) ?(value_range = 16)
    ?(hot_value = 0) ?(shards = 1) ~proposals ~rate ~seed () =
  let fail what = Anon_giraf.Config_error.fail ~where what in
  if proposals < 1 then
    fail (Printf.sprintf "proposals must be >= 1 (got %d)" proposals);
  (* [not (rate > 0.)] also catches NaN, which fails every comparison. *)
  if Float.is_nan rate then fail "rate must not be NaN";
  if not (Float.is_finite rate && rate > 0.) then
    fail (Printf.sprintf "rate must be a finite positive number (got %g)" rate);
  (* Past [max_int], [int_of_float] is unspecified (0 on amd64): the last
     proposal would arrive before the first. *)
  let last = 1. +. (float_of_int (proposals - 1) /. rate) in
  if not (last < float_of_int max_int) then
    fail
      (Printf.sprintf "rate %g puts the last of %d proposals past round max_int" rate
         proposals);
  if Float.is_nan skew then fail "skew must not be NaN";
  if not (skew >= 0. && skew <= 1.) then
    fail (Printf.sprintf "skew must be in [0,1] (got %g)" skew);
  if value_range < 1 then
    fail (Printf.sprintf "value-range must be >= 1 (got %d)" value_range);
  if shards < 1 then fail (Printf.sprintf "shards must be >= 1 (got %d)" shards);
  { proposals; rate; skew; value_range; hot_value; shards; seed }

type proposal = { id : int; arrival : int; value : Value.t }

let arrival t j = 1 + int_of_float (float_of_int j /. t.rate)

let value t j =
  (* A fresh splitmix stream per proposal id keeps the draw a pure
     function of [(seed, j)] — shard order and window scheduling cannot
     perturb it. *)
  let rng = Rng.make (t.seed lxor ((j + 1) * 0x9E3779B9)) in
  if Rng.chance rng t.skew then t.hot_value else Rng.int rng t.value_range

let shard_of t j = j mod t.shards

let shard_proposals t shard =
  let rec collect j acc =
    if j < 0 then acc
    else
      collect (j - t.shards) ({ id = j; arrival = arrival t j; value = value t j } :: acc)
  in
  let last =
    let r = (t.proposals - 1) mod t.shards in
    t.proposals - 1 - ((r - shard + t.shards) mod t.shards)
  in
  if shard >= t.shards || last < 0 then []
  else collect last []

let pp ppf t =
  Format.fprintf ppf
    "workload: %d proposals @@ %g/round, skew %g (hot=%d, range %d), %d shard%s, seed %d"
    t.proposals t.rate t.skew t.hot_value t.value_range t.shards
    (if t.shards = 1 then "" else "s")
    t.seed
