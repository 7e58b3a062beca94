open Anon_kernel

type violation =
  | Agreement_violation of { p1 : int; v1 : Value.t; p2 : int; v2 : Value.t }
  | Validity_violation of { pid : int; value : Value.t }
  | Termination_violation of { undecided : int list; horizon : int }
  | No_source of { round : int }
  | Source_not_timely of { round : int; sender : int; missing : int list }
  | Unstable_source of { gst : int }
  | No_root of { round : int; window : int; senders : (int * int list) list }
  | Stability_violation of { round : int; window : int; sender : int; missing : int list }
  | Weak_set_lost_add of { value : Value.t; get_client : int; get_invoked : int }
  | Weak_set_phantom_value of { value : Value.t; get_client : int }
  | Register_stale_read of { reader : int; read_value : Value.t; expected : Value.t }

let pp_violation ppf = function
  | Agreement_violation { p1; v1; p2; v2 } ->
    Format.fprintf ppf "agreement: p%d decided %a but p%d decided %a" p1 Value.pp v1
      p2 Value.pp v2
  | Validity_violation { pid; value } ->
    Format.fprintf ppf "validity: p%d decided %a, never proposed" pid Value.pp value
  | Termination_violation { undecided; horizon } ->
    Format.fprintf ppf "termination: correct processes %a undecided after %d rounds"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      undecided horizon
  | No_source { round } -> Format.fprintf ppf "env: round %d has no source" round
  | Source_not_timely { round; sender; missing } ->
    Format.fprintf ppf "env: round %d sender p%d not timely to %a" round sender
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      missing
  | Unstable_source { gst } ->
    Format.fprintf ppf "env: no single source covers every round from %d on" gst
  | No_root { round; window; senders } ->
    let pp_sender ppf (s, missing) =
      Format.fprintf ppf "p%d late to %a" s
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           (fun ppf q -> Format.fprintf ppf "p%d" q))
        missing
    in
    Format.fprintf ppf
      "env: round %d (window %d) root reachability failed — no covering root: %a"
      round window
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_sender)
      senders
  | Stability_violation { round; window; sender; missing } ->
    Format.fprintf ppf
      "env: round %d (window %d) stability failed — sender p%d late to %a"
      round window sender
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         (fun ppf q -> Format.fprintf ppf "p%d" q))
      missing
  | Weak_set_lost_add { value; get_client; get_invoked } ->
    Format.fprintf ppf
      "weak-set: get by client %d (at %d) missed value %a added before it"
      get_client get_invoked Value.pp value
  | Weak_set_phantom_value { value; get_client } ->
    Format.fprintf ppf "weak-set: get by client %d returned %a, never added"
      get_client Value.pp value
  | Register_stale_read { reader; read_value; expected } ->
    Format.fprintf ppf "register: p%d read %a but last complete write was %a" reader
      Value.pp read_value Value.pp expected

(* --- Environment checking ----------------------------------------------- *)

(* A demanding round as the checks read it: its obligated receivers as
   a set. Timeliness is a set per sender (Alg. 1 delivers one broadcast
   to a set of processes), so sender [s] covers the round when
   [obligated ⊆ timely(s) ∪ {s}], with [timely(s)] its first entry in
   [info.timely] ({!Trace.timely_to}): a count of the intersection, no
   table and no allocation. *)
type round = { info : Trace.round_info; obligated : Pidset.t; size : int }

let round_of (info : Trace.round_info) =
  let obligated = Pidset.of_list info.obligated in
  { info; obligated; size = Pidset.cardinal obligated }

let covers r s =
  let timely = Trace.timely_to r.info s in
  let self = if Pidset.mem s r.obligated && not (Pidset.mem s timely) then 1 else 0 in
  Pidset.inter_cardinal r.obligated timely + self = r.size

(* The obligated processes that sender [s]'s timely receivers, plus
   itself, fail to include — the diagnostic payload when [covers] says
   no, in [info.obligated] order. *)
let missing_receivers r s =
  let timely = Trace.timely_to r.info s in
  List.filter (fun q -> q <> s && not (Pidset.mem q timely)) r.info.obligated

let correct_senders (t : Trace.t) (info : Trace.round_info) =
  List.filter (Crash.is_correct t.crash) info.senders

(* Rounds in which the environment owes anything: some correct, non-halted
   process was still listening and some correct process was still sending. *)
let demanding_rounds (t : Trace.t) =
  List.filter
    (fun (info : Trace.round_info) ->
      info.obligated <> [] && correct_senders t info <> [])
    t.rounds

(* A per-round MS source need not be correct — it only needs its
   end-of-round to occur in this round and its message to reach every
   obligated process timely. *)
let check_ms_round r =
  let has_source = List.exists (covers r) r.info.senders in
  if has_source then [] else [ No_source { round = r.info.round } ]

let check_all_timely t r =
  List.concat_map
    (fun s ->
      if covers r s then []
      else
        [ Source_not_timely
            { round = r.info.round; sender = s; missing = missing_receivers r s } ])
    (correct_senders t r.info)

(* The correct senders covering a round: its stable-source candidates. *)
let candidates t r = List.filter (covers r) (correct_senders t r.info)

(* From [gst] on the same process must be a source every round — except
   that a source which decides and halts stops executing rounds, so the
   obligation passes to a new stable source. We therefore require a single
   covering source per maximal segment, with segment boundaries only where
   every remaining candidate stopped sending (halted). [late] pairs each
   round from [gst] on with its {!candidates}. *)
let check_stable_source ~gst late =
  let rec walk candidates = function
    | [] -> []
    | ((info : Trace.round_info), now) :: rest ->
      let still = List.filter (fun s -> List.mem s now) candidates in
      if still <> [] then walk still rest
      else if List.for_all (fun s -> not (List.mem s info.senders)) candidates then
        (* every previous candidate halted: a new stable source may begin *)
        if now = [] then [ Unstable_source { gst } ] else walk now rest
      else [ Unstable_source { gst } ]
  in
  match late with
  | [] -> []
  | (_, []) :: _ -> [ Unstable_source { gst } ]
  | (_, candidates) :: rest -> walk candidates rest

(* Pulse round of a rooted dynamic environment: some sender must cover
   every obligated receiver (a root of the round's graph). The diagnostic
   carries every sender's missing receivers — the offending links. *)
let check_root t ~stability r =
  let window = ((r.info.round - 1) / stability) + 1 in
  let has_root = List.exists (covers r) r.info.senders in
  if has_root then []
  else
    [
      No_root
        {
          round = r.info.round;
          window;
          senders = List.map (fun s -> (s, missing_receivers r s)) (correct_senders t r.info);
        };
    ]

(* Healed round of a stability window: every correct sender timely to every
   obligated receiver. *)
let check_stability t ~stability r =
  let window = ((r.info.round - 1) / stability) + 1 in
  List.concat_map
    (fun s ->
      match missing_receivers r s with
      | [] -> []
      | missing -> [ Stability_violation { round = r.info.round; window; sender = s; missing } ])
    (correct_senders t r.info)

(* Every demanding round is read once and judged by every check it
   owes; the findings keep the order of one pass per check. *)
let check_env (t : Trace.t) =
  let judge f = List.map (fun info -> f (round_of info)) (demanding_rounds t) in
  match t.env with
  | Env.Async -> []
  | Env.Ms -> List.concat (judge check_ms_round)
  | Env.Sync -> List.concat (judge (check_all_timely t))
  | Env.Es { gst } ->
    let found =
      judge (fun r ->
          (check_ms_round r, if r.info.round >= gst then check_all_timely t r else []))
    in
    List.concat_map fst found @ List.concat_map snd found
  | Env.Ess { gst } ->
    let found =
      judge (fun r ->
          (check_ms_round r, if r.info.round >= gst then Some (r.info, candidates t r) else None))
    in
    List.concat_map fst found @ check_stable_source ~gst (List.filter_map snd found)
  | Env.Dynamic { stability; rooted } ->
    List.concat
      (judge (fun r ->
           if Env.pulse ~stability ~round:r.info.round then
             if rooted then check_root t ~stability r else []
           else check_stability t ~stability r))

(* --- Consensus judge -------------------------------------------------------- *)

module Consensus = struct
  type t = {
    inputs : Value.Set.t;
    exempt : int list;  (* pids outside the agreement obligation *)
    first : (int * Value.t) option;
    decided : (int * Value.t) list;  (* latest first *)
  }

  let create ?(exempt = []) ~inputs () =
    { inputs = Value.set_of_list inputs; exempt; first = None; decided = [] }

  let observe t ~pid ~value =
    let exempt = List.mem pid t.exempt in
    let validity =
      if Value.Set.mem value t.inputs then [] else [ Validity_violation { pid; value } ]
    in
    let agreement =
      if exempt then []
      else
        match t.first with
        | Some (p1, v1) when not (Value.equal v1 value) ->
          [ Agreement_violation { p1; v1; p2 = pid; v2 = value } ]
        | Some _ | None -> []
    in
    let irrevocability =
      match List.assoc_opt pid t.decided with
      | Some v0 when not (Value.equal v0 value) ->
        [ Agreement_violation { p1 = pid; v1 = v0; p2 = pid; v2 = value } ]
      | Some _ | None -> []
    in
    let t =
      {
        t with
        first =
          (if exempt then t.first
           else match t.first with None -> Some (pid, value) | some -> some);
        decided = (pid, value) :: t.decided;
      }
    in
    (t, validity @ agreement @ irrevocability)

  let decided t = List.rev t.decided
end

(* The judge applied to a finished run, its findings regrouped so that
   every validity violation precedes every agreement violation. *)
let check_decisions ?exempt ~inputs decisions =
  let _, found =
    List.fold_left
      (fun (judge, found) (pid, _, value) ->
        let judge, vs = Consensus.observe judge ~pid ~value in
        (judge, List.rev_append vs found))
      (Consensus.create ?exempt ~inputs (), [])
      decisions
  in
  let validity, agreement =
    List.partition (function Validity_violation _ -> true | _ -> false) (List.rev found)
  in
  validity @ agreement

(* --- Consensus checking -------------------------------------------------- *)

let check_consensus ?(expect_termination = true) (t : Trace.t) =
  let decisions = Trace.decisions t in
  (* Agreement and termination are promised to correct {e stayers} only: a
     churner that rejoins after every stayer halted runs alone on a fresh
     state and may legitimately decide its own value (anonymity leaves it
     nothing to recover). With [Churn.none] every pid is a stayer, so this
     is the classic check. Validity binds everyone. *)
  let safety =
    check_decisions
      ~exempt:(List.map (fun (ev : Churn.event) -> ev.pid) (Churn.events t.churn))
      ~inputs:(Array.to_list t.inputs) decisions
  in
  let termination =
    if not expect_termination then []
    else
      let decided = List.map (fun (pid, _, _) -> pid) decisions in
      let undecided =
        List.filter
          (fun p -> Churn.is_stayer t.churn p && not (List.mem p decided))
          (Crash.correct t.crash)
      in
      if undecided = [] then []
      else [ Termination_violation { undecided; horizon = Trace.last_round t } ]
  in
  safety @ termination

(* --- Weak-set semantics --------------------------------------------------- *)

type ws_add = {
  add_client : int;
  add_value : Value.t;
  add_invoked : int;
  add_completed : int option;
}

type ws_get = {
  get_client : int;
  get_result : Value.Set.t;
  get_invoked : int;
  get_completed : int;
}

type ws_op = Ws_add of ws_add | Ws_get of ws_get

module Weak_set = struct
  type t = {
    invoked : Value.Set.t;
    completed : (Value.t * int) list;  (* (value, completion time), latest first *)
  }

  let create () = { invoked = Value.Set.empty; completed = [] }
  let invoke_add t v = { t with invoked = Value.Set.add v t.invoked }
  let complete_add t v ~time = { t with completed = (v, time) :: t.completed }
  let invoked t = t.invoked
  let completed_values t = Value.set_of_list (List.map fst t.completed)

  let observe_get t ~client ~correct ~invoked_at ~result =
    let lost =
      if not correct then []
      else
        List.filter_map
          (fun (v, completed_at) ->
            if completed_at < invoked_at && not (Value.Set.mem v result) then
              Some
                (Weak_set_lost_add
                   { value = v; get_client = client; get_invoked = invoked_at })
            else None)
          (List.rev t.completed)
    in
    let phantom =
      Value.Set.fold
        (fun v acc ->
          if Value.Set.mem v t.invoked then acc
          else Weak_set_phantom_value { value = v; get_client = client } :: acc)
        result []
    in
    lost @ phantom
end

(* Each get is judged against every add invoked by the time it completed
   and every add completion; the findings are regrouped so that every
   lost add precedes every phantom value. *)
let check_weak_set ?correct ops =
  let adds = List.filter_map (function Ws_add a -> Some a | Ws_get _ -> None) ops in
  let is_correct client =
    match correct with None -> true | Some cs -> List.mem client cs
  in
  let judge_get g =
    let judge =
      List.fold_left
        (fun judge a ->
          let judge =
            if a.add_invoked <= g.get_completed then
              Weak_set.invoke_add judge a.add_value
            else judge
          in
          match a.add_completed with
          | Some time -> Weak_set.complete_add judge a.add_value ~time
          | None -> judge)
        (Weak_set.create ()) adds
    in
    Weak_set.observe_get judge ~client:g.get_client ~correct:(is_correct g.get_client)
      ~invoked_at:g.get_invoked ~result:g.get_result
  in
  let lost, phantom =
    List.partition
      (function Weak_set_lost_add _ -> true | _ -> false)
      (List.concat_map (function Ws_get g -> judge_get g | Ws_add _ -> []) ops)
  in
  lost @ phantom
