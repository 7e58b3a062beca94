open Anon_kernel

type round_info = {
  round : int;
  senders : int list;
  crashing : int list;
  source : int option;
  timely : (int * Pidset.t) list;
  obligated : int list;
  decided : (int * Value.t) list;
  msg_sizes : (int * int) list;
}

type t = {
  n : int;
  inputs : Value.t array;
  crash : Crash.t;
  churn : Churn.t;
  env : Env.t;
  rounds : round_info list;
}

module Log = struct
  (* One round's records, each list latest first. *)
  type 'm round = {
    mutable sent : (int * int * 'm) list;  (* (pid, size, message) *)
    mutable read : (int * 'm list) list;  (* (pid, set its compute read) *)
    mutable crashing : int list;
    mutable decided : (int * Value.t) list;
  }

  type 'm t = { by_round : (int, 'm round) Hashtbl.t; mutable reached : int }

  let create () = { by_round = Hashtbl.create 64; reached = 0 }

  let at t k =
    match Hashtbl.find_opt t.by_round k with
    | Some r -> r
    | None ->
      let r = { sent = []; read = []; crashing = []; decided = [] } in
      Hashtbl.replace t.by_round k r;
      r

  let broadcast t ~pid ~round ~size m =
    let r = at t round in
    r.sent <- (pid, size, m) :: r.sent;
    t.reached <- max t.reached round

  let read t ~pid ~round set =
    let r = at t round in
    r.read <- (pid, set) :: r.read

  let crash t ~pid ~round =
    let r = at t round in
    r.crashing <- pid :: r.crashing

  let decide t ~pid ~round v =
    let r = at t round in
    r.decided <- (pid, v) :: r.decided
end

(* Timeliness on content (Alg. 1, footnote 2): sender [s] is timely to
   [q] iff a message equal to [s]'s is in the set [q] computed round [k]
   on, whoever carried it there. *)
let of_log ~msg_compare ~inputs ~crash ~env (log : _ Log.t) =
  let n = Array.length inputs in
  let round_info k =
    let r = Log.at log k in
    let sent = List.sort (fun (p, _, _) (q, _, _) -> Int.compare p q) r.sent in
    let read = List.sort (fun (p, _) (q, _) -> Int.compare p q) r.read in
    let timely =
      List.filter_map
        (fun (s, _, m) ->
          match
            List.filter_map
              (fun (q, set) ->
                if q <> s && List.exists (fun m' -> msg_compare m m' = 0) set then Some q
                else None)
              read
          with
          | [] -> None
          | receivers -> Some (s, Pidset.of_list receivers))
        sent
    in
    {
      round = k;
      senders = List.map (fun (s, _, _) -> s) sent;
      crashing = r.crashing;
      source = None;
      timely;
      obligated = List.map fst read;
      decided = r.decided;
      msg_sizes = List.map (fun (s, size, _) -> (s, size)) sent;
    }
  in
  {
    n;
    inputs;
    crash;
    churn = Churn.none ~n;
    env;
    rounds = List.init log.reached (fun i -> round_info (i + 1));
  }

let timely_to info (sender : int) =
  let rec first = function
    | [] -> Pidset.empty
    | (s, rs) :: tl -> if s = sender then rs else first tl
  in
  first info.timely

let decisions t =
  List.concat_map
    (fun info -> List.map (fun (pid, v) -> (pid, info.round, v)) info.decided)
    t.rounds

let last_round t =
  match List.rev t.rounds with [] -> 0 | info :: _ -> info.round

let pp_pids ppf pids =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    pids

let pp_round ppf info =
  Format.fprintf ppf "@[<h>r%-3d src=%s senders=%a"
    info.round
    (match info.source with None -> "-" | Some s -> "p" ^ string_of_int s)
    pp_pids info.senders;
  if info.crashing <> [] then Format.fprintf ppf " crash=%a" pp_pids info.crashing;
  if info.decided <> [] then
    Format.fprintf ppf " decided=[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
         (fun ppf (p, v) -> Format.fprintf ppf "p%d:%a" p Value.pp v))
      info.decided;
  Format.fprintf ppf "@]"

let pp ppf t =
  Format.fprintf ppf "@[<v>trace n=%d env=%a crash=%a" t.n Env.pp t.env
    Crash.pp t.crash;
  if Churn.events t.churn <> [] then Format.fprintf ppf " churn=%a" Churn.pp t.churn;
  Format.fprintf ppf "@,%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_round)
    t.rounds
