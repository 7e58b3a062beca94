open Anon_kernel

type last_broadcast = Silent | Broadcast_all | Broadcast_subset
type event = { pid : int; round : int; broadcast : last_broadcast }

(* [events] sorted by (round, pid), and indexed by round once; the
   correct pids listed once. *)
type t = {
  n : int;
  by_pid : event option array;
  events : event list;
  by_round : event By_round.t;
  correct : int list;
}

let check_events ~n evs =
  let seen = Array.make (max n 0) false in
  let rec go = function
    | [] -> Ok ()
    | ev :: rest ->
      if ev.pid < 0 || ev.pid >= n then Error "pid out of range"
      else if ev.round < 1 then Error "round must be >= 1"
      else if seen.(ev.pid) then Error "duplicate pid"
      else begin
        seen.(ev.pid) <- true;
        go rest
      end
  in
  go evs

let of_events ~n evs =
  Result.iter_error (fun e -> invalid_arg ("Crash.of_events: " ^ e)) (check_events ~n evs);
  let by_pid = Array.make n None in
  List.iter (fun ev -> by_pid.(ev.pid) <- Some ev) evs;
  let events =
    Array.to_list by_pid |> List.filter_map Fun.id
    |> List.sort (fun a b -> compare (a.round, a.pid) (b.round, b.pid))
  in
  {
    n;
    by_pid;
    events;
    by_round = By_round.index (fun ev -> Some ev.round) events;
    correct = List.filter (fun p -> Option.is_none by_pid.(p)) (List.init n Fun.id);
  }

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

let correct t = t.correct

let event t pid = t.by_pid.(pid)

let reach kind rng candidates =
  match kind with
  | Broadcast_all -> candidates
  | Silent -> []
  | Broadcast_subset -> Rng.subset rng ~p:0.5 candidates

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
