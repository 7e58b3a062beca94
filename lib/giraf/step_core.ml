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
    out : A.msg option array;  (* this round's broadcast; None = sends nothing *)
    inflight : A.msg Backend.t;  (* undrained arrivals *)
    fate : fate array;
    version : int array;  (* bumped whenever p's observable view changes *)
    is_crashing : bool array;  (* scratch mirror of crashing_now pids *)
    mutable round : int;  (* 0 before the first begin_round *)
    mutable crashing_now : Crash.event list;  (* latched round-[round] events *)
    mutable outgoing : A.msg Dispatch.outbound list;  (* ascending pid *)
    mutable stable : int option;  (* ESS: the current segment's stable source *)
    correct : int list;
    correct_stayers : int list;
  }

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
      out = Array.make n None;
      inflight = Backend.create ~n;
      fate = Array.make n Live;
      version = Array.make n 0;
      is_crashing = Array.make n false;
      round = 0;
      crashing_now = [];
      outgoing = [];
      stable = None;
      correct;
      correct_stayers = List.filter (Churn.is_stayer churn) correct;
    }

  let copy t =
    {
      t with
      st = Array.copy t.st;
      out = Array.copy t.out;
      inflight = Backend.copy t.inflight;
      fate = Array.copy t.fate;
      version = Array.copy t.version;
      is_crashing = Array.copy t.is_crashing;
    }

  let n t = t.n
  let input t p = t.inputs.(p)
  let round t = t.round
  let fate t p = t.fate.(p)
  let state t p = t.st.(p)
  let out t p = t.out.(p)
  let inflight t p = Backend.to_list ~compare:A.msg_compare t.inflight p
  let version t p = t.version.(p)
  let stable t = t.stable
  let crashing_pids t = List.map (fun (ev : Crash.event) -> ev.pid) t.crashing_now
  let mailbox_pending t p = Backend.length t.inflight p
  let touch t p = t.version.(p) <- t.version.(p) + 1

  let set_state t p st =
    t.st.(p) <- Some st;
    touch t p

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
        t.out.(ev.pid) <- None;
        touch t ev.pid;
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
        touch t ev.pid;
        (match on_rejoin with Some f -> f ~pid:ev.pid | None -> ())
      | Crashed | Halted -> ());
      rejoin t on_rejoin tl

  let rec unmark t = function
    | [] -> ()
    | (ev : Crash.event) :: tl ->
      t.is_crashing.(ev.pid) <- false;
      unmark t tl

  (* The round's crash events of processes that can still crash, each
     marked in [is_crashing]: a process that already crashed or decided
     cannot crash again. *)
  let[@tail_mod_cons] rec latch t = function
    | [] -> []
    | (ev : Crash.event) :: tl -> (
      match t.fate.(ev.pid) with
      | Live | Away ->
        t.is_crashing.(ev.pid) <- true;
        ev :: latch t tl
      | Crashed | Halted -> latch t tl)

  (* A round without events allocates nothing: each helper returns at
     once on an empty list. *)
  let begin_round ?on_leave ?on_rejoin t =
    let k = t.round + 1 in
    t.round <- k;
    leave t on_leave (Churn.leaving_at t.churn ~round:k);
    rejoin t on_rejoin (Churn.rejoining_at t.churn ~round:k);
    (* Latch the round's crash events against the fates as they stand
       before the compute. *)
    unmark t t.crashing_now;
    t.crashing_now <- latch t (Crash.crashing_at t.crash ~round:k)

  let compute ?observe ?on_decide ?on_compute t =
    let k = t.round in
    let rev_out = ref [] in
    for p = 0 to t.n - 1 do
      match t.fate.(p) with
      | Crashed | Halted | Away -> ()
      | Live ->
        touch t p;
        (match t.st.(p) with
        | None ->
          (* Round 1 and just after a rejoin: start fresh from the
             original input. *)
          let st, m = A.initialize t.inputs.(p) in
          t.st.(p) <- Some st;
          t.out.(p) <- Some m;
          rev_out := { Dispatch.sender = p; msg = m } :: !rev_out
        | Some st ->
          let current, fresh =
            Backend.take ~compare:A.msg_compare t.inflight p ~round:(k - 1)
          in
          let st', m, dec =
            A.compute st ~round:(k - 1) ~inbox:{ Intf.current; fresh }
          in
          t.st.(p) <- Some st';
          (match dec with
          | None ->
            t.out.(p) <- Some m;
            rev_out := { Dispatch.sender = p; msg = m } :: !rev_out
          | Some v ->
            (* Deciders halt and send nothing. *)
            t.fate.(p) <- Halted;
            t.out.(p) <- None;
            (match on_decide with
            | Some f -> f ~pid:p ~round:(k - 1) ~value:v
            | None -> ()));
          (match on_compute with Some f -> f ~pid:p st' | None -> ()));
        (match (observe, t.st.(p)) with
        | Some f, Some st -> f ~pid:p ~round:(k - 1) st
        | None, _ | _, None -> ())
    done;
    t.outgoing <- List.rev !rev_out;
    t.outgoing

  (* After the compute phase the normal senders, the obligated receivers
     and the alive receivers all coincide: the live processes (every one
     of which broadcast) not crashing this round. Deciders left both sets
     when they halted. *)
  let alive t =
    let acc = ref [] in
    for p = t.n - 1 downto 0 do
      if t.fate.(p) = Live && not t.is_crashing.(p) then acc := p :: !acc
    done;
    !acc

  let ctx t =
    let alive = alive t in
    {
      Adversary.round = t.round;
      senders = alive;
      obligated = alive;
      correct = t.correct;
      alive;
    }

  (* The round's dispatch, shared by [deliver] and its dry run
     [preview]: the live processes may receive; eligibility, crash
     broadcast kinds and clamping stay in Dispatch. *)
  let dispatch t ~plan ~crash_rng =
    Dispatch.dispatch ~round:t.round ~outgoing:t.outgoing
      ~crashing_events:t.crashing_now
      ~eligible:(Pidset.init t.n (fun q -> t.fate.(q) = Live))
      ~receivers:(fun () -> alive t) ~plan ~crash_rng

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
      t.out.(ev.pid) <- None;
      Backend.clear t.inflight ev.pid;
      touch t ev.pid;
      crash t tl

  let preview t ~plan ~crash_rng = (dispatch t ~plan ~crash_rng, latched_stable t plan)

  (* The dispatched round is filed once, one ordering of its broadcasts
     for every receiver. Every process that may receive is touched. *)
  let deliver t ~plan ~crash_rng =
    let stats = dispatch t ~plan ~crash_rng in
    for q = 0 to t.n - 1 do
      if t.fate.(q) = Live then touch t q
    done;
    Backend.file ~compare:A.msg_compare t.inflight ~sent:t.round t.outgoing stats.groups;
    crash t t.crashing_now;
    let stable = latched_stable t plan in
    if not (Option.equal Int.equal stable t.stable) then begin
      (match t.stable with Some p -> touch t p | None -> ());
      (match stable with Some p -> touch t p | None -> ());
      t.stable <- stable
    end;
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
          | Do_get ->
            Core.touch t.core p;
            (match on_get with Some f -> f ~pid:p ~result:(S.get st) | None -> ())
          | Do_add v -> add p st v
          | Do_add_with f -> add p st (f (S.get st)))
        | _ -> ()
    done
end
