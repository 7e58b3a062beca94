open Anon_kernel

type event = { pid : int; leave : int; rejoin : int option }

(* [events] sorted by (leave, pid), and indexed once by leave and by
   rejoin round (each round's events in that order). *)
type t = {
  n : int;
  by_pid : event option array;
  events : event list;
  leaving : event By_round.t;
  rejoining : event By_round.t;
}

let check_events ~n evs =
  let seen = Array.make (max n 0) false in
  let rec go = function
    | [] -> Ok ()
    | ev :: rest ->
      if ev.pid < 0 || ev.pid >= n then Error "pid out of range"
      else if ev.leave < 1 then Error "leave round must be >= 1"
      else if (match ev.rejoin with Some r -> r <= ev.leave | None -> false) then
        Error "rejoin round must be after leave round"
      else if seen.(ev.pid) then Error "duplicate pid"
      else begin
        seen.(ev.pid) <- true;
        go rest
      end
  in
  go evs

let of_events ~n evs =
  Result.iter_error (fun e -> invalid_arg ("Churn.of_events: " ^ e)) (check_events ~n evs);
  let by_pid = Array.make n None in
  List.iter (fun ev -> by_pid.(ev.pid) <- Some ev) evs;
  let events =
    Array.to_list by_pid |> List.filter_map Fun.id
    |> List.sort (fun a b -> compare (a.leave, a.pid) (b.leave, b.pid))
  in
  {
    n;
    by_pid;
    events;
    leaving = By_round.index (fun ev -> Some ev.leave) events;
    rejoining = By_round.index (fun ev -> ev.rejoin) events;
  }

let none ~n = of_events ~n []

let random ~n ~churners ~max_round rng =
  if churners < 0 || churners > n then invalid_arg "Churn.random: bad churner count";
  let victims = Rng.shuffle rng (List.init n Fun.id) in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  let evs =
    List.map
      (fun pid ->
        let leave = Rng.int_in rng 1 (max max_round 1) in
        let rejoin =
          if Rng.bool rng then Some (leave + Rng.int_in rng 1 3) else None
        in
        { pid; leave; rejoin })
      (take churners victims)
  in
  of_events ~n evs

let n t = t.n

let events t = t.events

let validate ~where ~n ~crash ?churn () =
  let fail fmt = Printf.ksprintf (Config_error.fail ~where) fmt in
  if n < 1 then fail "inputs must be non-empty";
  if Crash.n crash <> n then
    fail "inputs/crash size mismatch (%d inputs, crash schedule for %d)" n
      (Crash.n crash);
  Option.iter
    (fun churn ->
      if churn.n <> n then
        fail "inputs/churn size mismatch (%d inputs, churn schedule for %d)" n churn.n;
      List.iter
        (fun ev ->
          if Crash.event crash ev.pid <> None then
            fail "p%d both crashes and churns — pick one" ev.pid)
        (events churn))
    churn

let event t pid = t.by_pid.(pid)
let is_stayer t pid = t.by_pid.(pid) = None
let stayers t = List.filter (is_stayer t) (List.init t.n Fun.id)

let away t ~pid ~round =
  match t.by_pid.(pid) with
  | None -> false
  | Some ev -> (
    round >= ev.leave
    && match ev.rejoin with None -> true | Some r -> round < r)

let leaving_at t ~round = By_round.find t.leaving round
let rejoining_at t ~round = By_round.find t.rejoining round

let churners t = List.length (events t)

let pp ppf t =
  let pp_event ppf ev =
    match ev.rejoin with
    | None -> Format.fprintf ppf "p%d leaves@@r%d" ev.pid ev.leave
    | Some r -> Format.fprintf ppf "p%d away@@r%d-r%d" ev.pid ev.leave r
  in
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_event)
    (events t)
