module type CANDIDATE = sig
  val name : string

  type state

  val init : n:int -> me:int -> state
  val step : state -> round:int -> heard_from:int list -> state
  val trusted : state -> int list
end

type verdict =
  | Completeness_violated of { run : [ `R1 | `R2 ]; horizon : int }
  | Intersection_violated of { t : int; out_p0 : int list; out_p1 : int list }

let pp_pids ppf pids =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    pids

let pp_verdict ppf = function
  | Completeness_violated { run; horizon } ->
    Format.fprintf ppf "completeness violated in %s within %d rounds"
      (match run with `R1 -> "r1" | `R2 -> "r2")
      horizon
  | Intersection_violated { t; out_p0; out_p1 } ->
    Format.fprintf ppf "intersection violated at t=%d: p0 trusts %a, p1 trusts %a" t
      pp_pids out_p0 pp_pids out_p1

let two_run_attack (module C : CANDIDATE) ~horizon =
  if horizon < 1 then
    Anon_giraf.Config_error.fail ~where:"Sigma.two_run_attack"
      (Printf.sprintf "horizon must be >= 1 (got %d)" horizon);
  (* Run r1 at p0: hears only itself forever. Find the first time its
     output settles to {p0}. *)
  let rec r1 st round =
    if round > horizon then None
    else
      let st = C.step st ~round ~heard_from:[ 0 ] in
      match C.trusted st with
      | [ 0 ] -> Some round
      | _ -> r1 st (round + 1)
  in
  match r1 (C.init ~n:2 ~me:0) 1 with
  | None -> Completeness_violated { run = `R1; horizon }
  | Some t ->
    (* Run r2 at p1: p0's messages reach p1 timely while p0 is alive
       (p0 is the source up to t), then p0 crashes; p1 hears only itself
       afterwards. Completeness forces p1's output to become {p1}. *)
    let rec r2 st round =
      if round > t + horizon then None
      else
        let heard_from = if round <= t then [ 0; 1 ] else [ 1 ] in
        let st = C.step st ~round ~heard_from in
        match C.trusted st with
        | [ 1 ] -> Some round
        | _ -> r2 st (round + 1)
    in
    (match r2 (C.init ~n:2 ~me:1) 1 with
    | None -> Completeness_violated { run = `R2; horizon }
    | Some _ ->
      (* In r2, p0's view up to t is identical to r1 (indistinguishable),
         so at time t it outputs {p0}; p1 eventually outputs {p1}. *)
      Intersection_violated { t; out_p0 = [ 0 ]; out_p1 = [ 1 ] })

module Trust_window (W : sig
  val window : int
end) : CANDIDATE = struct
  let name = Printf.sprintf "trust-heard-within-%d" W.window

  type state = { me : int; n : int; last_heard : (int, int) Hashtbl.t; round : int }

  let init ~n ~me =
    let last_heard = Hashtbl.create 8 in
    Hashtbl.replace last_heard me 0;
    { me; n; last_heard; round = 0 }

  let step st ~round ~heard_from =
    List.iter (fun p -> Hashtbl.replace st.last_heard p round) heard_from;
    { st with round }

  let trusted st =
    List.filter
      (fun p ->
        match Hashtbl.find_opt st.last_heard p with
        | Some r -> st.round - r <= W.window
        | None -> false)
      (List.init st.n Fun.id)
end

module Trust_all_ever : CANDIDATE = struct
  let name = "trust-all-ever-heard"

  type state = { n : int; heard : int list }

  let init ~n ~me = { n; heard = [ me ] }

  let step st ~round:_ ~heard_from =
    { st with heard = List.sort_uniq Int.compare (heard_from @ st.heard) }

  let trusted st = st.heard
end

module Trust_static : CANDIDATE = struct
  let name = "trust-static-membership"

  type state = int

  let init ~n ~me:_ = n
  let step st ~round:_ ~heard_from:_ = st
  let trusted n = List.init n Fun.id
end

module Trust_majority : CANDIDATE = struct
  let name = "trust-most-recent-majority"

  type state = { me : int; n : int; last_heard : (int, int) Hashtbl.t }

  let init ~n ~me =
    let last_heard = Hashtbl.create 8 in
    Hashtbl.replace last_heard me max_int;
    { me; n; last_heard }

  let step st ~round ~heard_from =
    List.iter
      (fun p -> if p <> st.me then Hashtbl.replace st.last_heard p round)
      heard_from;
    st

  let trusted st =
    let quorum = (st.n / 2) + 1 in
    let ranked =
      List.init st.n Fun.id
      |> List.map (fun p ->
             (p, Option.value ~default:min_int (Hashtbl.find_opt st.last_heard p)))
      |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | (p, _) :: rest -> p :: take (k - 1) rest
    in
    List.sort Int.compare (take quorum ranked)
end

let builtin_candidates =
  [
    (module Trust_window (struct
      let window = 3
    end) : CANDIDATE);
    (module Trust_all_ever : CANDIDATE);
    (module Trust_static : CANDIDATE);
    (module Trust_majority : CANDIDATE);
  ]
