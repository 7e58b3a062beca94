open Anon_kernel

type last_broadcast = Silent | Broadcast_all | Broadcast_subset
type event = { pid : int; round : int; broadcast : last_broadcast }

(* [events] sorted by (round, pid), and indexed by round once. *)
type t = {
  n : int;
  by_pid : event option array;
  events : event list;
  by_round : event By_round.t;
}

let of_events ~n evs =
  let by_pid = Array.make n None in
  List.iter
    (fun ev ->
      if ev.pid < 0 || ev.pid >= n then invalid_arg "Crash.of_events: pid out of range";
      if ev.round < 1 then invalid_arg "Crash.of_events: round must be >= 1";
      if by_pid.(ev.pid) <> None then invalid_arg "Crash.of_events: duplicate pid";
      by_pid.(ev.pid) <- Some ev)
    evs;
  let events =
    Array.to_list by_pid |> List.filter_map Fun.id
    |> List.sort (fun a b -> compare (a.round, a.pid) (b.round, b.pid))
  in
  { n; by_pid; events; by_round = By_round.index (fun ev -> Some ev.round) events }

let none ~n = of_events ~n []

let random ~n ~failures ~max_round rng =
  if failures < 0 || failures > n then
    Config_error.fail ~where:"Crash.random"
      (Printf.sprintf "failures must be in [0, n] (got %d of n=%d)" failures n);
  let victims = Rng.shuffle rng (List.init n Fun.id) in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  let evs =
    List.map
      (fun pid ->
        { pid; round = Rng.int_in rng 1 (max max_round 1); broadcast = Broadcast_subset })
      (take failures victims)
  in
  of_events ~n evs

let n t = t.n

let events t = t.events

let is_correct t pid = t.by_pid.(pid) = None

let correct t =
  List.filter (is_correct t) (List.init t.n Fun.id)

let crash_round t pid =
  match t.by_pid.(pid) with None -> None | Some ev -> Some ev.round

let crashing_at t ~round = By_round.find t.by_round round
let failures t = List.length (events t)

let pp_broadcast ppf = function
  | Silent -> Format.pp_print_string ppf "silent"
  | Broadcast_all -> Format.pp_print_string ppf "all"
  | Broadcast_subset -> Format.pp_print_string ppf "subset"

let pp ppf t =
  let pp_event ppf ev =
    Format.fprintf ppf "p%d@@r%d(%a)" ev.pid ev.round pp_broadcast ev.broadcast
  in
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_event)
    (events t)
