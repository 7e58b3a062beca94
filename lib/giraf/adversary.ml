open Anon_kernel

type ctx = { round : int; obligated : int list; correct : int list }

type group = { arrival : int; receivers : Pidset.t }
type plan = { source : int option; groups : (int * group list) list }
type delivery = { receiver : int; arrival : int }

type t = {
  name : string;
  env : Env.t;
  plan : ctx -> Rng.t -> plan;
}

let name t = t.name
let env t = t.env
let plan t = t.plan

type rotation = Round_robin | Random_source | Pinned of int

(* [List.mem] on pids, without its polymorphic comparison. *)
let rec mem (p : int) = function [] -> false | q :: tl -> q = p || mem p tl

(* A sender's links: one per (group, member but the sender), ascending
   receiver, a receiver's links in group order. *)
let sender_links s gs =
  let tagged =
    List.concat_map
      (fun (g : group) ->
        List.filter_map
          (fun q -> if q = s then None else Some { receiver = q; arrival = g.arrival })
          (Pidset.to_list g.receivers))
      gs
  in
  List.stable_sort (fun d1 d2 -> Int.compare d1.receiver d2.receiver) tagged

let links p = List.map (fun (s, gs) -> (s, sender_links s gs)) p.groups

(* A sender's links grouped by arrival, in first-appearance order: each
   link joins the first group of its arrival that lacks its receiver,
   so a repeated link starts a further group. *)
let groups_of_links ds =
  let rec place (d : delivery) = function
    | [] -> [ { arrival = d.arrival; receivers = Pidset.of_list [ d.receiver ] } ]
    | (g : group) :: tl when g.arrival = d.arrival && not (Pidset.mem d.receiver g.receivers) ->
      { g with receivers = Pidset.union g.receivers (Pidset.of_list [ d.receiver ]) } :: tl
    | g :: tl -> g :: place d tl
  in
  List.fold_left (fun gs d -> if d.receiver < 0 then gs else place d gs) [] ds

let of_links ~source ls = { source; groups = List.map (fun (s, ds) -> (s, groups_of_links ds)) ls }

(* Every sender with the same groups: a round's groups are built once,
   not once per sender. *)
let[@tail_mod_cons] rec each gs = function [] -> [] | p :: tl -> (p, gs) :: each gs tl

let timely_all ctx =
  let receivers = Pidset.of_list ctx.obligated in
  let groups = each [ { arrival = ctx.round; receivers } ] ctx.obligated in
  let source = match ctx.obligated with [] -> None | s :: _ -> Some s in
  { source; groups }

(* Source candidates must be correct (so they survive the round) and
   actually broadcasting this round: how many obligated processes are,
   and the [i]-th of them, without building their list. *)
let rec count_candidates ctx count = function
  | [] -> count
  | p :: tl -> count_candidates ctx (if mem p ctx.correct then count + 1 else count) tl

let rec nth_candidate ctx i = function
  | [] -> invalid_arg "Adversary.nth_candidate"
  | p :: tl ->
    if not (mem p ctx.correct) then nth_candidate ctx i tl
    else if i = 0 then p
    else nth_candidate ctx (i - 1) tl

(* [Rng.pick] over the candidates draws [Rng.int] over their count, as
   [Random_source] does here. *)
let pick_source ~rotation ctx rng =
  match count_candidates ctx 0 ctx.obligated with
  | 0 -> None
  | count -> (
    match rotation with
    | Pinned p when mem p ctx.correct && mem p ctx.obligated -> Some p
    | Pinned _ -> Some (nth_candidate ctx 0 ctx.obligated)
    | Round_robin -> Some (nth_candidate ctx (ctx.round mod count) ctx.obligated)
    | Random_source -> Some (nth_candidate ctx (Rng.int rng count) ctx.obligated))

(* Sender [p]'s draws: every obligated receiver but [p] drawn in turn,
   in [obligated] order, into the row of [late] of its delay, 0 for
   timely. A source owes every receiver and draws nothing. Returns the
   last row drawn into, [top] if none is later. *)
let rec draw rng ~noise ~max_delay late ~is_source (p : int) top = function
  | [] -> top
  | q :: tl ->
    if q = p then draw rng ~noise ~max_delay late ~is_source p top tl
    else begin
      (* [Rng.chance] draws nothing for a [noise] of 0. *)
      let row =
        if is_source || (noise > 0. && Rng.chance rng noise) then 0
        else Rng.int_in rng 1 (Int.max 1 max_delay)
      in
      Pidset.Rows.add late ~row q;
      draw rng ~noise ~max_delay late ~is_source p (Int.max top row) tl
    end

(* The drawn rows from [row] to [last] as groups, ascending arrival. *)
let rec drawn_groups late ~round ~last row =
  if row > last then []
  else if Pidset.Rows.is_empty late ~row then drawn_groups late ~round ~last (row + 1)
  else
    let receivers = Pidset.Rows.take late ~row in
    let rest = drawn_groups late ~round ~last (row + 1) in
    { arrival = round + row; receivers } :: rest

(* Every sender's groups, drawn sender by sender. *)
let rec noisy_rows ctx rng ~noise ~max_delay late source = function
  | [] -> []
  | p :: tl ->
    let is_source = match source with Some s -> s = p | None -> false in
    let last = draw rng ~noise ~max_delay late ~is_source p (-1) ctx.obligated in
    let groups = drawn_groups late ~round:ctx.round ~last 0 in
    (p, groups) :: noisy_rows ctx rng ~noise ~max_delay late source tl

(* One round of "minimal + noise" schedule: [source] (if any) is timely to
   all obligated receivers; every other (sender, receiver) link is timely
   with probability [noise], late otherwise. Row [d] of one
   [Pidset.Rows] collects a sender's receivers arriving at [round + d]. *)
let noisy_round ~source ~noise ~max_delay ctx rng =
  let rows = 1 + Int.max 1 max_delay in
  let late = Pidset.Rows.create ~rows ~size:(1 + List.fold_left Int.max (-1) ctx.obligated) in
  { source; groups = noisy_rows ctx rng ~noise ~max_delay late source ctx.obligated }

(* Pre-GST schedule that provably stalls Alg. 2: two camps, the source
   alternating between the two smallest correct senders by round parity,
   all other links exactly one round late. Each camp's champion keeps
   seeing its own value written while the other value stays in PROPOSED, so
   the decide guard never fires. The source is timely to every obligated
   receiver; every other sender shares one late group. *)
let blocking_round ctx =
  let source =
    match count_candidates ctx 0 ctx.obligated with
    | 0 -> None
    | 1 -> Some (nth_candidate ctx 0 ctx.obligated)
    | _ -> Some (nth_candidate ctx (if ctx.round mod 2 = 1 then 0 else 1) ctx.obligated)
  in
  let obligated = Pidset.of_list ctx.obligated in
  let late = [ { arrival = ctx.round + 1; receivers = obligated } ] in
  let[@tail_mod_cons] rec rows = function
    | [] -> []
    | p :: tl -> (
      match source with
      | Some s when s = p -> (p, [ { arrival = ctx.round; receivers = obligated } ]) :: rows tl
      | Some _ | None -> (p, late) :: rows tl)
  in
  { source; groups = rows ctx.obligated }

(* The stable source's rotation: the pinned [source], else the smallest
   correct pid. *)
let stable_rotation source ctx =
  match source with
  | Some p -> Pinned p
  | None -> ( match ctx.correct with [] -> Round_robin | p :: _ -> Pinned p)

(* Every built-in adversary: what [env] owes the round picks full
   synchrony, or a round around a moving source from [rotation] (noisy, or
   the [blocking] round), around the stable [source], or with no source. *)
let owed ~name ~env ?(blocking = false) ?source ?(rotation = Round_robin) ?(noise = 0.0)
    ?(max_delay = 3) () =
  let plan ctx rng =
    match Env.owes env ~round:ctx.round with
    | Env.Every_sender -> timely_all ctx
    | Env.A_source when blocking -> blocking_round ctx
    | Env.A_source ->
      let source = pick_source ~rotation ctx rng in
      noisy_round ~source ~noise ~max_delay ctx rng
    | Env.Stable_source ->
      let source = pick_source ~rotation:(stable_rotation source ctx) ctx rng in
      noisy_round ~source ~noise ~max_delay ctx rng
    | Env.Nothing -> noisy_round ~source:None ~noise ~max_delay ctx rng
  in
  { name; env; plan }

let sync () = owed ~name:"sync" ~env:Env.Sync ()

let ms ?rotation ?noise ?max_delay () =
  owed ~name:"ms" ~env:Env.Ms ?rotation ?noise ?max_delay ()

let es ~gst ?noise ?max_delay () = owed ~name:"es" ~env:(Env.Es { gst }) ?noise ?max_delay ()

let ess ~gst ?source ?rotation ?noise ?max_delay () =
  owed ~name:"ess" ~env:(Env.Ess { gst }) ?source ?rotation ?noise ?max_delay ()

(* Before [gst], the blocking round; from [gst] on, full synchrony under
   ES, and the stable source with every other link one round late under
   ESS. *)
let es_blocking ~gst () =
  owed ~name:"es-blocking" ~env:(Env.Es { gst }) ~blocking:true ~max_delay:1 ()

let ess_blocking ~gst ?source () =
  owed ~name:"ess-blocking" ~env:(Env.Ess { gst }) ~blocking:true ?source ~max_delay:1 ()

let dynamic ~stability ?(rooted = true) ?rotation ?noise ?max_delay () =
  if stability < 1 then invalid_arg "Adversary.dynamic: stability must be >= 1";
  owed
    ~name:(Printf.sprintf "dynamic(s=%d%s)" stability (if rooted then "" else ",unrooted"))
    ~env:(Env.Dynamic { stability; rooted })
    ?rotation ?noise ?max_delay ()

let async ?(max_delay = 5) ?(timely_chance = 0.3) () =
  owed ~name:"async" ~env:Env.Async ~noise:timely_chance ~max_delay ()

let scripted ~name ~env plan = { name; env; plan }

let of_schedule ?(name = "schedule") ~env plans =
  let plans = Array.of_list plans in
  let plan ctx _rng =
    if ctx.round >= 1 && ctx.round <= Array.length plans then
      plans.(ctx.round - 1)
    else timely_all ctx
  in
  { name; env; plan }

let map_plan ?(rename = Fun.id) f t =
  { t with name = rename t.name; plan = (fun ctx rng -> f ctx rng (t.plan ctx rng)) }
