open Anon_kernel

type fate = Intf.fate = Live | Crashed | Halted | Away

type op_spec = Do_add of Value.t | Do_get | Do_add_with of (Value.Set.t -> Value.t)

type workload = (int * (int * op_spec) list) list

(* One core owns the round skeleton: [begin_round] (churn transitions,
   then the crash latch), [compute] (iteration [k] consumes arrivals <=
   k-1 and runs round k-1), [deliver] (Dispatch under the plan, crasher
   marking, ESS stable bookkeeping). Consensus processes halt on
   decision; the service layer below runs a client-operation phase
   between rounds instead. *)

(* Mailboxes are owned by the backend seam ({!Backend}): the live
   backend must consume arrivals with byte-identical semantics, so the
   one implementation lives there and both backends call it. *)

module Consensus (A : Intf.ALGORITHM) = struct
  type state = A.state
  type msg = A.msg

  type t = {
    n : int;
    inputs : Value.t array;
    crash : Crash.t;
    churn : Churn.t;
    env : Env.t;
    st : A.state option array;  (* None before initialize / while away *)
    inflight : A.msg Backend.t;  (* undrained arrivals *)
    fate : fate array;
    mutable round : int;  (* 0 before the first begin_round *)
    mutable crashing_now : Crash.event list;  (* latched round-[round] events *)
    mutable outgoing : A.msg Dispatch.outbound list;  (* ascending pid *)
    mutable stable : int option;  (* ESS: the current segment's stable source *)
    mutable alive : int list;  (* the last [alive] built, see [alive] *)
    mutable alive_set : Pidset.t;  (* [alive] as a set *)
    scheduled : bool;  (* whether [crash] or [churn] holds an event *)
    correct : int list;
    correct_stayers : int list;
  }

  (* [l] without the pids [keep] rejects: [l] itself when it keeps all. *)
  let rec kept keep = function
    | [] -> []
    | p :: tl as l ->
      let tl' = kept keep tl in
      if not (keep p) then tl' else if tl' == tl then l else p :: tl'

  let create ~inputs ~crash ~churn ~env =
    let n = Array.length inputs in
    let correct = Crash.correct crash in
    {
      n;
      inputs;
      crash;
      churn;
      env;
      st = Array.make n None;
      inflight = Backend.create ~n;
      fate = Array.make n Live;
      round = 0;
      crashing_now = [];
      outgoing = [];
      stable = None;
      alive = [];
      alive_set = Pidset.empty;
      scheduled = Crash.events crash <> [] || Churn.events churn <> [];
      correct;
      correct_stayers = kept (Churn.is_stayer churn) correct;
    }

  let copy t =
    { t with st = Array.copy t.st; inflight = Backend.copy t.inflight; fate = Array.copy t.fate }

  let n t = t.n
  let input t p = t.inputs.(p)
  let round t = t.round
  let fate t p = t.fate.(p)
  let state t p = t.st.(p)
  (* A process's broadcast is its entry in [outgoing] while it is live:
     a decider, a crasher and a leaver went out of [Live] when they
     stopped sending. *)
  let rec sent p = function
    | [] -> None
    | (o : _ Dispatch.outbound) :: tl -> if o.sender = p then Some o.msg else sent p tl

  let out t p = match t.fate.(p) with Live -> sent p t.outgoing | Crashed | Halted | Away -> None
  let inflight t p = Backend.to_list ~compare:A.msg_compare t.inflight p
  let stable t = t.stable
  let crashing_pids t = List.map (fun (ev : Crash.event) -> ev.pid) t.crashing_now
  let mailbox_pending t p = Backend.length t.inflight p
  let set_state t p st = t.st.(p) <- Some st

  (* Churn transitions. Halted processes ignore churn — decisions are
     irrevocable, there is nothing left to leave. A rejoiner restarts
     from scratch: anonymity leaves no identifier under which state or
     mail could have been parked. *)
  let rec leave t on_leave = function
    | [] -> ()
    | (ev : Churn.event) :: tl ->
      (match t.fate.(ev.pid) with
      | Live ->
        t.fate.(ev.pid) <- Away;
        (match on_leave with Some f -> f ~pid:ev.pid | None -> ())
      | Crashed | Halted | Away -> ());
      leave t on_leave tl

  let rec rejoin t on_rejoin = function
    | [] -> ()
    | (ev : Churn.event) :: tl ->
      (match t.fate.(ev.pid) with
      | Away | Live ->
        t.fate.(ev.pid) <- Live;
        t.st.(ev.pid) <- None;
        Backend.clear t.inflight ev.pid;
        (match on_rejoin with Some f -> f ~pid:ev.pid | None -> ())
      | Crashed | Halted -> ());
      rejoin t on_rejoin tl

  let rec crashing (p : int) = function
    | [] -> false
    | (ev : Crash.event) :: tl -> ev.pid = p || crashing p tl

  (* The round's crash events of processes that can still crash: a
     process that already crashed or decided cannot crash again. *)
  let[@tail_mod_cons] rec latch t = function
    | [] -> []
    | (ev : Crash.event) :: tl -> (
      match t.fate.(ev.pid) with
      | Live | Away -> ev :: latch t tl
      | Crashed | Halted -> latch t tl)

  (* A round without events allocates nothing: each helper returns at
     once on an empty list, and schedules without events are not looked
     up. *)
  let begin_round ?on_leave ?on_rejoin t =
    let k = t.round + 1 in
    t.round <- k;
    if t.scheduled then begin
      leave t on_leave (Churn.leaving_at t.churn ~round:k);
      rejoin t on_rejoin (Churn.rejoining_at t.churn ~round:k);
      (* Latch the round's crash events against the fates as they stand
         before the compute. *)
      match (t.crashing_now, Crash.crashing_at t.crash ~round:k) with
      | [], [] -> ()
      | _, evs -> t.crashing_now <- latch t evs
    end

  (* After the compute phase the normal senders, the obligated receivers
     and the alive receivers are one set: the live processes (every one
     of which broadcast) not crashing this round. Deciders left it when
     they halted. *)
  let is_alive t p = t.fate.(p) = Live && not (crashing p t.crashing_now)

  let rec lists_alive t p = function
    | q :: tl when q = p -> is_alive t p && lists_alive t (p + 1) tl
    | [] when p >= t.n -> true
    | l -> p < t.n && (not (is_alive t p)) && lists_alive t (p + 1) l

  let rec alive_from t p =
    if p >= t.n then [] else if is_alive t p then p :: alive_from t (p + 1) else alive_from t (p + 1)

  (* The alive processes, ascending, kept for the round's context and
     dispatch, which read them between the compute phase and the crash
     step: the previous round's list and set when they still hold. *)
  let refresh_alive t =
    if not (lists_alive t 0 t.alive) then begin
      let l = alive_from t 0 in
      t.alive <- l;
      t.alive_set <- Pidset.of_list l
    end

  (* Process [p]'s compute, then those of the processes after it, in pid
     order: iteration [k] runs [initialize] on a process without state
     and [compute] on round [k-1]'s mailbox otherwise. The broadcasts,
     ascending pid, are built as the recursion returns. *)
  let rec compute_from t ~k observe on_decide on_compute p =
    if p >= t.n then []
    else
      match t.fate.(p) with
      | Crashed | Halted | Away -> compute_from t ~k observe on_decide on_compute (p + 1)
      | Live -> (
        match t.st.(p) with
        | None ->
          (* Round 1 and just after a rejoin: start fresh from the
             original input. *)
          let st, m = A.initialize t.inputs.(p) in
          t.st.(p) <- Some st;
          (match observe with Some f -> f ~pid:p ~round:(k - 1) st | None -> ());
          let rest = compute_from t ~k observe on_decide on_compute (p + 1) in
          { Dispatch.sender = p; msg = m } :: rest
        | Some st -> (
          let inbox = Backend.take ~compare:A.msg_compare t.inflight p ~round:(k - 1) in
          let st', m, dec = A.compute st ~round:(k - 1) ~inbox in
          t.st.(p) <- Some st';
          match dec with
          | None ->
            (match on_compute with Some f -> f ~pid:p st' | None -> ());
            (match observe with Some f -> f ~pid:p ~round:(k - 1) st' | None -> ());
            let rest = compute_from t ~k observe on_decide on_compute (p + 1) in
            { Dispatch.sender = p; msg = m } :: rest
          | Some v ->
            (* Deciders halt and send nothing. *)
            t.fate.(p) <- Halted;
            (match on_decide with Some f -> f ~pid:p ~round:(k - 1) ~value:v | None -> ());
            (match on_compute with Some f -> f ~pid:p st' | None -> ());
            (match observe with Some f -> f ~pid:p ~round:(k - 1) st' | None -> ());
            compute_from t ~k observe on_decide on_compute (p + 1)))

  let compute ?observe ?on_decide ?on_compute t =
    t.outgoing <- compute_from t ~k:t.round observe on_decide on_compute 0;
    refresh_alive t;
    t.outgoing

  let ctx t = { Adversary.round = t.round; obligated = t.alive; correct = t.correct }

  (* The live processes: the alive ones and the live crashers. *)
  let rec add_live t set = function
    | [] -> set
    | (ev : Crash.event) :: tl ->
      add_live t
        (if t.fate.(ev.pid) = Live then Pidset.union set (Pidset.of_list [ ev.pid ]) else set)
        tl

  (* The round's dispatch, shared by [deliver] and its dry run
     [preview]: the live processes may receive; eligibility, crash
     broadcast kinds and clamping stay in Dispatch. *)
  let dispatch t ~plan ~crash_rng =
    Dispatch.dispatch ~round:t.round ~outgoing:t.outgoing ~crashing_events:t.crashing_now
      ~eligible:(add_live t t.alive_set t.crashing_now)
      ~receivers:t.alive ~plan ~crash_rng

  (* Where a stable source is owed, the plan's source becomes it. *)
  let latched_stable t (plan : Adversary.plan) =
    match Env.owes t.env ~round:t.round with
    | Env.Stable_source -> (
      match plan.source with Some _ as src -> src | None -> t.stable)
    | Env.Nothing | Env.A_source | Env.Every_sender -> t.stable

  (* The latched crashers stop: state, broadcast and mailbox go. *)
  let rec crash t = function
    | [] -> ()
    | (ev : Crash.event) :: tl ->
      t.fate.(ev.pid) <- Crashed;
      t.st.(ev.pid) <- None;
      Backend.clear t.inflight ev.pid;
      crash t tl

  let preview t ~plan ~crash_rng = (dispatch t ~plan ~crash_rng, latched_stable t plan)

  (* The dispatched round is filed once, one ordering of its broadcasts
     for every receiver. *)
  let deliver t ~plan ~crash_rng =
    let stats = dispatch t ~plan ~crash_rng in
    Backend.file ~compare:A.msg_compare t.inflight ~sent:t.round t.outgoing stats.groups;
    crash t t.crashing_now;
    t.stable <- latched_stable t plan;
    stats

  let undecided_correct_stayers t =
    List.filter (fun p -> t.fate.(p) <> Halted) t.correct_stayers

  let rec all_halted fate = function
    | [] -> true
    | p :: tl -> fate.(p) = Halted && all_halted fate tl

  let all_decided t = all_halted t.fate t.correct_stayers
end

module Service (S : Intf.SERVICE) = struct
  (* A service process is a consensus process that never decides and
     ignores its input. *)
  module Core = Consensus (struct
    include S

    let leader _ = None
    let initialize (_ : Value.t) = S.initialize ()

    let compute st ~round ~inbox =
      let st, m = S.compute st ~round ~inbox in
      (st, m, None)
  end)

  type t = {
    core : Core.t;
    script : (int * op_spec) list array;
    blocked : (Value.t * int) option array;  (* pending add: value, invoked round *)
  }

  let create ~n ~crash ~churn ~env ~workload =
    {
      core = Core.create ~inputs:(Array.make n 0) ~crash ~churn ~env;
      script =
        Array.init n (fun p -> Option.value ~default:[] (List.assoc_opt p workload));
      blocked = Array.make n None;
    }

  let copy t =
    {
      core = Core.copy t.core;
      script = Array.copy t.script;
      blocked = Array.copy t.blocked;
    }

  let core t = t.core
  let script t p = t.script.(p)
  let blocked t p = t.blocked.(p)
  let compute_time k = 2 * k
  let op_time k = (2 * k) + 1

  (* A leaver's pending add is surfaced to the shell (recorded
     incomplete — the value may or may not have propagated; the weak-set
     axioms only bind completed adds). A rejoiner restarts with a fresh
     replica and an empty mailbox, its remaining client script intact. *)
  let begin_round ?on_leave ?on_rejoin t =
    Core.begin_round t.core ?on_rejoin ~on_leave:(fun ~pid ->
        let pending = t.blocked.(pid) in
        t.blocked.(pid) <- None;
        match on_leave with Some f -> f ~pid ~pending | None -> ())

  (* A pending add completes the moment [compute] clears BLOCK. *)
  let compute ?observe ?on_add_complete t =
    Core.compute t.core ?observe ~on_compute:(fun ~pid st ->
        match t.blocked.(pid) with
        | Some (v, invoked_round) when not (S.add_pending st) -> (
          t.blocked.(pid) <- None;
          match on_add_complete with
          | Some f -> f ~pid ~value:v ~invoked_round
          | None -> ())
        | Some _ | None -> ())

  (* The round-[round] client-operation phase: one operation per unblocked
     live client, in pid order, reading the post-compute state. *)
  let ops ?on_get ?on_add t =
    let k = Core.round t.core in
    let add p st v =
      Core.set_state t.core p (S.add st v);
      t.blocked.(p) <- Some (v, k);
      match on_add with Some f -> f ~pid:p ~value:v | None -> ()
    in
    for p = 0 to Core.n t.core - 1 do
      if Core.fate t.core p = Live && t.blocked.(p) = None then
        match (t.script.(p), Core.state t.core p) with
        | (start, op) :: rest, Some st when start <= k -> (
          t.script.(p) <- rest;
          match op with
          | Do_get -> (
            match on_get with Some f -> f ~pid:p ~result:(S.get st) | None -> ())
          | Do_add v -> add p st v
          | Do_add_with f -> add p st (f (S.get st)))
        | _ -> ()
    done
end
