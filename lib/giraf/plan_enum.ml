type spec = {
  env : Env.t;
  stable : int option;
  max_delay : int;
  crashing : int list;
  include_inadmissible : bool;
}

type choice = { plan : Adversary.plan; admissible : bool }

(* Cartesian product, first axis varying slowest (deterministic order). *)
let rec product = function
  | [] -> [ [] ]
  | choices :: rest ->
    let tails = product rest in
    List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

(* Int sequences as hashtable keys: the plan dedup's and the memo's
   structural keys, each a flat list with negative separators between
   its lists of pids, rounds and arrivals. *)
module Ints = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h x -> (h * 65599) + x) 0
end)

(* A plan's links in normal form: senders ascending, each sender's
   (receiver, arrival) pairs ascending, a sender closed by -1. *)
let plan_key (p : Adversary.plan) =
  let links =
    List.sort compare
      (List.map
         (fun (s, ds) ->
           ( s,
             List.sort compare
               (List.map (fun (d : Adversary.delivery) -> (d.receiver, d.arrival)) ds) ))
         (Adversary.links p))
  in
  List.fold_right
    (fun (s, ds) acc -> s :: List.fold_right (fun (r, a) acc -> r :: a :: acc) ds (-1 :: acc))
    links []

type fate = Timely | Late of int | Absent

let enumerate spec (ctx : Adversary.ctx) =
  let round = ctx.round in
  (* Crashers are never obligated. *)
  let all_senders = ctx.obligated @ spec.crashing in
  let correct_senders = List.filter (fun s -> List.mem s ctx.correct) ctx.obligated in
  (* A round owes something only while a correct process sends. *)
  let owed = if correct_senders = [] then Env.Nothing else Env.owes spec.env ~round in
  let source_choices =
    match owed with
    | Env.Nothing -> [ None ]
    (* Every correct sender is forced timely anyway; one source suffices. *)
    | Env.Every_sender -> [ Some (List.hd correct_senders) ]
    | Env.Stable_source -> (
      match spec.stable with
      | Some s when List.mem s ctx.obligated -> [ Some s ]
      | Some _ | None -> List.map (fun s -> Some s) correct_senders)
    (* Any sender, even a crasher, may be the source. *)
    | Env.A_source -> List.map (fun s -> Some s) all_senders
  in
  let assignments ~source s =
    let receivers = List.filter (fun q -> q <> s) ctx.obligated in
    let crashing = List.mem s spec.crashing in
    (* Every receiver is obligated: the source's links are forced timely,
       and every correct sender's where every sender is owed. *)
    let forced =
      source = Some s || (owed = Env.Every_sender && List.mem s correct_senders)
    in
    let fates =
      Timely
      :: (List.init spec.max_delay (fun i -> Late (i + 1))
         @ if crashing then [ Absent ] else [])
    in
    let per_receiver =
      List.map (fun q -> (q, if forced then [ Timely ] else fates)) receivers
    in
    let combos = product (List.map snd per_receiver) in
    let tagged =
      List.map (fun fs -> List.combine (List.map fst per_receiver) fs) combos
    in
    let covers fs = List.for_all (fun (_, f) -> f = Timely) fs in
    let tagged =
      if owed = Env.Stable_source && Some s <> source && not crashing then
        match List.filter (fun fs -> not (covers fs)) tagged with
        | [] -> tagged (* defensive: never empty a sender's choice set *)
        | restricted -> restricted
      else tagged
    in
    (* A fate assignment as groups: the timely receivers, then one
       group per delay, absent receivers in none. *)
    let groups fs =
      List.filter_map
        (fun fate ->
          match List.filter_map (fun (q, f) -> if f = fate then Some q else None) fs with
          | [] -> None
          | qs ->
            let arrival = match fate with Late d -> round + d | Timely | Absent -> round in
            Some { Adversary.arrival; receivers = Anon_kernel.Pidset.of_list qs })
        (Timely :: List.init spec.max_delay (fun i -> Late (i + 1)))
    in
    List.map groups tagged
  in
  let plans_for source =
    let per_sender =
      List.map
        (fun s -> List.map (fun ds -> (s, ds)) (assignments ~source s))
        all_senders
    in
    List.map (fun groups -> { Adversary.source; groups }) (product per_sender)
  in
  let admissible = List.concat_map plans_for source_choices in
  let armed =
    let trivially_covered =
      List.exists
        (fun s -> List.for_all (fun q -> q = s) ctx.obligated)
        all_senders
    in
    (* Where the environment owes nothing, an all-late plan is
       admissible, not armed. *)
    if (not spec.include_inadmissible) || owed = Env.Nothing || trivially_covered then []
    else
      let late = Anon_kernel.Pidset.of_list ctx.obligated in
      let groups =
        List.map
          (fun s ->
            if List.mem s spec.crashing then (s, [])
            else (s, [ { Adversary.arrival = round + 1; receivers = late } ]))
          all_senders
      in
      [ { Adversary.source = None; groups } ]
  in
  let seen = Ints.create 64 in
  let dedup admissible plans =
    List.filter_map
      (fun plan ->
        let key = plan_key plan in
        if Ints.mem seen key then None
        else begin
          Ints.add seen key ();
          Some { plan; admissible }
        end)
      plans
  in
  dedup true admissible @ dedup false armed

type memo = (int * choice list) Ints.t

let memo () : memo = Ints.create 128

(* Everything [enumerate] reads besides the constant parts of the spec:
   the round, the ESS stable source (-1 for none), the crashers, and the
   obligated processes ([correct] is fixed by the crash schedule the
   memo's exploration runs under). *)
let memo_key spec (ctx : Adversary.ctx) =
  (ctx.round :: Option.value spec.stable ~default:(-1) :: spec.crashing) @ (-2 :: ctx.obligated)

let enumerate_memo memo spec ctx =
  let key = memo_key spec ctx in
  match Ints.find_opt memo key with
  | Some entry -> entry
  | None ->
    let entry = (Ints.length memo, enumerate spec ctx) in
    Ints.add memo key entry;
    entry
