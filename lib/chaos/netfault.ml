(* Wire-level fault plans for the live transport. See netfault.mli. *)

module Config_error = Anon_giraf.Config_error
module Topology = Anon_giraf.Topology

type spec = {
  drop : float;
  duplicate : float;
  delay : float;
  max_delay_s : float;
  sever : Topology.t option;
}

let none = { drop = 0.; duplicate = 0.; delay = 0.; max_delay_s = 0.; sever = None }

let is_noop s =
  s.drop = 0. && s.duplicate = 0. && s.delay = 0. && s.sever = None

let check_probability ~where name p =
  (* [not (p >= 0.)] also catches NaN, which every comparison rejects. *)
  if not (Float.is_finite p && p >= 0. && p <= 1.) then
    Config_error.fail ~where
      (Printf.sprintf "%s must be a probability in [0,1] (got %g)" name p)

let validate ~where s =
  check_probability ~where "drop" s.drop;
  check_probability ~where "dup" s.duplicate;
  check_probability ~where "delay" s.delay;
  if not (Float.is_finite s.max_delay_s && s.max_delay_s >= 0.) then
    Config_error.fail ~where
      (Printf.sprintf "delay bound must be finite and >= 0 (got %g)" s.max_delay_s);
  if s.delay > 0. && s.max_delay_s = 0. then
    Config_error.fail ~where "delay probability is positive but the delay bound is 0s";
  s

(* --- CLI syntax: drop:P,dup:P,delay:P[:MAX_S],sever:NAME ------------------- *)

let where = "Netfault.of_string"

let parse_float ~clause raw =
  match float_of_string_opt (String.trim raw) with
  | Some f -> f
  | None ->
    Config_error.fail ~where
      (Printf.sprintf "%s: %S is not a number" clause raw)

let parse_int ~clause raw =
  match int_of_string_opt (String.trim raw) with
  | Some i -> i
  | None ->
    Config_error.fail ~where (Printf.sprintf "%s: %S is not an integer" clause raw)

let parse_sever ~clause args =
  match args with
  | [ "rotating-root" ] -> Topology.rotating_root ()
  | [ "spanning-star" ] -> Topology.spanning_star ()
  | [ "t-interval"; t ] -> Topology.t_interval ~t:(parse_int ~clause t) ()
  | [ "partition-pulse"; p ] ->
    Topology.partition_pulse ~period:(parse_int ~clause p) ()
  | [ "random"; d ] -> Topology.random_graph ~density:(parse_float ~clause d) ()
  | _ ->
    Config_error.fail ~where
      (Printf.sprintf
         "%s: expected sever:rotating-root | spanning-star | t-interval:<t> | \
          partition-pulse:<p> | random:<density>"
         clause)

let of_string raw =
  let raw = String.trim raw in
  if raw = "" || raw = "none" then none
  else begin
    let seen = Hashtbl.create 4 in
    let once key =
      if Hashtbl.mem seen key then
        Config_error.fail ~where (Printf.sprintf "duplicate %s clause" key);
      Hashtbl.add seen key ()
    in
    let spec =
      List.fold_left
        (fun spec clause ->
          match String.split_on_char ':' clause with
          | [ "drop"; p ] ->
            once "drop";
            { spec with drop = parse_float ~clause p }
          | [ "dup"; p ] ->
            once "dup";
            { spec with duplicate = parse_float ~clause p }
          | [ "delay"; p ] ->
            once "delay";
            { spec with delay = parse_float ~clause p; max_delay_s = 0.05 }
          | [ "delay"; p; max_s ] ->
            once "delay";
            {
              spec with
              delay = parse_float ~clause p;
              max_delay_s = parse_float ~clause max_s;
            }
          | "sever" :: args ->
            once "sever";
            { spec with sever = Some (parse_sever ~clause args) }
          | _ ->
            Config_error.fail ~where
              (Printf.sprintf
                 "unknown clause %S (expected drop:P, dup:P, delay:P[:MAX_S] or \
                  sever:NAME)"
                 clause))
        none
        (String.split_on_char ',' raw)
    in
    validate ~where spec
  end

let rate = Topology.float_clause

let to_string s =
  if is_noop s then "none"
  else
    let parts =
      List.filter_map Fun.id
        [
          (if s.drop > 0. then Some ("drop:" ^ rate s.drop) else None);
          (if s.duplicate > 0. then Some ("dup:" ^ rate s.duplicate) else None);
          (if s.delay > 0. then Some ("delay:" ^ rate s.delay ^ ":" ^ rate s.max_delay_s)
           else None);
          Option.map (fun t -> "sever:" ^ Topology.name t) s.sever;
        ]
    in
    String.concat "," parts

let pp fmt s = Format.pp_print_string fmt (to_string s)
