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

let plan_key (p : Adversary.plan) =
  let deliveries =
    List.sort compare
      (List.map
         (fun (s, ds) ->
           ( s,
             List.sort compare
               (List.map (fun (d : Adversary.delivery) -> (d.receiver, d.arrival)) ds)
           ))
         p.deliveries)
  in
  let buf = Buffer.create 64 in
  List.iter
    (fun (s, ds) ->
      Buffer.add_string buf (string_of_int s);
      Buffer.add_char buf ':';
      List.iter
        (fun (r, a) ->
          Buffer.add_string buf (string_of_int r);
          Buffer.add_char buf '@';
          Buffer.add_string buf (string_of_int a);
          Buffer.add_char buf ';')
        ds;
      Buffer.add_char buf '|')
    deliveries;
  Buffer.contents buf

type fate = Timely | Late of int | Absent

let enumerate spec (ctx : Adversary.ctx) =
  let round = ctx.round in
  let all_senders =
    ctx.senders @ List.filter (fun c -> not (List.mem c ctx.senders)) spec.crashing
  in
  let correct_senders = List.filter (fun s -> List.mem s ctx.correct) ctx.senders in
  (* A round owes something only while a correct process sends and some
     process listens. *)
  let owed =
    if ctx.obligated = [] || correct_senders = [] then Env.Nothing
    else Env.owes spec.env ~round
  in
  let source_choices =
    match owed with
    | Env.Nothing -> [ None ]
    (* Every correct sender is forced timely anyway; one source suffices. *)
    | Env.Every_sender -> [ Some (List.hd correct_senders) ]
    | Env.Stable_source -> (
      match spec.stable with
      | Some s when List.mem s ctx.senders -> [ Some s ]
      | Some _ | None -> List.map (fun s -> Some s) correct_senders)
    (* Any sender, even a crasher, may be the source. *)
    | Env.A_source -> List.map (fun s -> Some s) all_senders
  in
  let assignments ~source s =
    let receivers = List.filter (fun q -> q <> s) ctx.alive in
    let crashing = List.mem s spec.crashing in
    (* Links to the obligated receivers are forced timely from the source,
       and from every correct sender where every sender is owed. *)
    let forced q =
      List.mem q ctx.obligated
      && (source = Some s || (owed = Env.Every_sender && List.mem s correct_senders))
    in
    let fates =
      Timely
      :: (List.init spec.max_delay (fun i -> Late (i + 1))
         @ if crashing then [ Absent ] else [])
    in
    let per_receiver =
      List.map (fun q -> (q, if forced q then [ Timely ] else fates)) receivers
    in
    let combos = product (List.map snd per_receiver) in
    let tagged =
      List.map (fun fs -> List.combine (List.map fst per_receiver) fs) combos
    in
    let covers fs =
      List.for_all (fun q -> q = s || List.assoc_opt q fs = Some Timely) ctx.obligated
    in
    let tagged =
      if owed = Env.Stable_source && Some s <> source && not crashing then
        match List.filter (fun fs -> not (covers fs)) tagged with
        | [] -> tagged (* defensive: never empty a sender's choice set *)
        | restricted -> restricted
      else tagged
    in
    List.map
      (fun fs ->
        List.filter_map
          (fun (q, f) ->
            match f with
            | Timely -> Some { Adversary.receiver = q; arrival = round }
            | Late d -> Some { Adversary.receiver = q; arrival = round + d }
            | Absent -> None)
          fs)
      tagged
  in
  let plans_for source =
    let per_sender =
      List.map
        (fun s -> List.map (fun ds -> (s, ds)) (assignments ~source s))
        all_senders
    in
    List.map
      (fun deliveries -> { Adversary.source; deliveries })
      (product per_sender)
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
      let deliveries =
        List.map
          (fun s ->
            let receivers = List.filter (fun q -> q <> s) ctx.alive in
            if List.mem s spec.crashing then (s, [])
            else
              ( s,
                List.map
                  (fun q -> { Adversary.receiver = q; arrival = round + 1 })
                  receivers ))
          all_senders
      in
      [ { Adversary.source = None; deliveries } ]
  in
  let seen = Hashtbl.create 64 in
  let dedup admissible plans =
    List.filter_map
      (fun plan ->
        let key = plan_key plan in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some { plan; admissible }
        end)
      plans
  in
  dedup true admissible @ dedup false armed

type memo = (string, choice list) Hashtbl.t

let memo () : memo = Hashtbl.create 128

(* Everything [enumerate] reads besides the constant parts of the spec:
   the round, the ESS stable source, the crashers, and the ctx process
   lists ([correct] is fixed by the crash schedule the memo's exploration
   runs under). *)
let memo_key spec (ctx : Adversary.ctx) =
  let buf = Buffer.create 64 in
  let ints label xs =
    Buffer.add_char buf label;
    List.iter
      (fun x ->
        Buffer.add_string buf (string_of_int x);
        Buffer.add_char buf ',')
      xs
  in
  Buffer.add_string buf (string_of_int ctx.round);
  Buffer.add_char buf '|';
  (match spec.stable with
  | None -> ()
  | Some s -> Buffer.add_string buf (string_of_int s));
  ints '|' spec.crashing;
  ints 's' ctx.senders;
  ints 'o' ctx.obligated;
  ints 'a' ctx.alive;
  Buffer.contents buf

let enumerate_memo memo spec ctx =
  let key = memo_key spec ctx in
  match Hashtbl.find_opt memo key with
  | Some choices -> choices
  | None ->
    let choices = enumerate spec ctx in
    Hashtbl.add memo key choices;
    choices
