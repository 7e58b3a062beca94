open Anon_kernel
module R = Anon_obs.Recorder
module M = Anon_obs.Metrics
module E = Anon_obs.Event
module Name = Anon_obs.Name

type config = {
  inputs : Value.t array;
  crash : Crash.t;
  churn : Churn.t;
  adversary : Adversary.t;
  horizon : int;
  seed : int;
  stop_on_decision : bool;
}

(* The checks every lockstep run makes: the n/crash/churn schedule, the
   environment and the horizon. *)
let validate ~where c =
  Churn.validate ~where ~n:(Array.length c.inputs) ~crash:c.crash ~churn:c.churn ();
  Env.validate ~where (Adversary.env c.adversary);
  if c.horizon < 1 then
    Config_error.fail ~where (Printf.sprintf "horizon must be >= 1 (got %d)" c.horizon)

let default_config ?(horizon = 200) ?(stop_on_decision = true) ?(seed = 42) ?churn
    ~inputs ~crash adversary =
  let inputs = Array.of_list inputs in
  let churn =
    match churn with Some c -> c | None -> Churn.none ~n:(Array.length inputs)
  in
  let config = { inputs; crash; churn; adversary; horizon; seed; stop_on_decision } in
  validate ~where:"Runner.default_config" config;
  config

type outcome = {
  trace : Trace.t;
  decisions : (int * int * Value.t) list;
  all_correct_decided : bool;
  rounds_executed : int;
  messages_sent : int;
  deliveries : int;
  timely_deliveries : int;
}

let decision_round outcome =
  if not outcome.all_correct_decided then None
  else
    let correct_rounds =
      List.filter_map
        (fun (pid, r, _) ->
          if Crash.is_correct outcome.trace.Trace.crash pid then Some r else None)
        outcome.decisions
    in
    match correct_rounds with
    | [] -> None
    | r :: rs -> Some (List.fold_left max r rs)

(* The one lockstep round loop (Alg. 1), for both families: begin_round
   with churn events, compute, plan, deliver with deliver/crash events,
   the round's trace entry, then the end-of-run trace and [Run_end]. A
   family adds its compute hooks, the phase between deliver and the next
   round (the weak set's client operations) and its decision test. *)
module Loop (Core : Intf.CORE) = struct
  type family = {
    algo : string;
    msg_size : Core.msg -> int;
    begin_round :
      ?on_leave:(pid:int -> unit) -> ?on_rejoin:(pid:int -> unit) -> unit -> unit;
    compute : round:int -> Core.msg Dispatch.outbound list;
    decided_now : unit -> (int * Value.t) list;  (* the last compute's deciders *)
    operate : round:int -> unit;
    all_decided : unit -> bool;
  }

  (* The outcome's [decisions] are the family's to fill in. *)
  let run ~recorder { inputs; crash; churn; adversary; horizon; seed; stop_on_decision }
      core fam =
    let obs_on = R.active recorder in
    let kernel_before = if obs_on then Some (R.kernel_baseline ()) else None in
    let m_broadcasts = R.counter recorder Name.broadcasts in
    let m_deliveries = R.counter recorder Name.deliveries in
    let m_timely = R.counter recorder Name.timely_deliveries in
    let m_crashes = R.counter recorder Name.crashes in
    let m_leaves = R.counter recorder "churn.leaves" in
    let m_rejoins = R.counter recorder "churn.rejoins" in
    let m_rounds = R.gauge recorder Name.rounds in
    let m_msg_size = R.histogram recorder Name.msg_size in
    let m_mailbox = R.histogram recorder Name.mailbox_pending in
    let t_compute = R.histogram recorder Name.compute_us in
    let t_deliver = R.histogram recorder Name.deliver_us in
    let n = Array.length inputs in
    R.emit recorder (fun () -> E.Run_start { algo = fam.algo; n; seed });
    let rng = Rng.make seed in
    let crash_rng = Rng.split rng in
    let rounds = ref [] in
    let messages_sent = ref 0 in
    let deliveries = ref 0 in
    let timely_deliveries = ref 0 in
    let round = ref 1 in
    let continue = ref true in
    while !continue && !round <= horizon do
      let k = !round in
      R.emit recorder (fun () -> E.Round_start { round = k });
      if obs_on then
        fam.begin_round
          ~on_leave:(fun ~pid ->
            M.incr m_leaves;
            R.emit recorder (fun () -> E.Churn { pid; round = k; rejoin = false }))
          ~on_rejoin:(fun ~pid ->
            M.incr m_rejoins;
            R.emit recorder (fun () -> E.Churn { pid; round = k; rejoin = true }))
          ()
      else fam.begin_round ();
      let outgoing =
        if obs_on then M.time t_compute (fun () -> fam.compute ~round:k)
        else fam.compute ~round:k
      in
      (* Adversarial deliveries. A source must reach every process that
         will compute this round — not only the correct ones; see
         DESIGN.md §5 and experiment A2 for what breaks under the paper's
         literal §2.3 reading. *)
      let ctx = Core.ctx core in
      let plan = Adversary.plan adversary ctx rng in
      let stats =
        (* The hooks only feed observability; skipping them when the
           recorder is off saves a per-delivery closure invocation. *)
        if obs_on then
          M.time t_deliver (fun () ->
              Core.deliver core ~plan ~crash_rng
                ~on_deliver:(fun ~sender ~receiver ~arrival ->
                  R.emit recorder (fun () ->
                      E.Deliver { sender; receiver; round = k; arrival }))
                ~on_crash:(fun ~pid ->
                  M.incr m_crashes;
                  R.emit recorder (fun () -> E.Crash { pid; round = k })))
        else Core.deliver core ~plan ~crash_rng
      in
      messages_sent := !messages_sent + List.length outgoing;
      deliveries := !deliveries + stats.delivered;
      timely_deliveries := !timely_deliveries + stats.timely_count;
      if obs_on then begin
        M.incr ~by:(List.length outgoing) m_broadcasts;
        M.incr ~by:stats.delivered m_deliveries;
        M.incr ~by:stats.timely_count m_timely
      end;
      fam.operate ~round:k;
      let info =
        {
          Trace.round = k;
          senders = List.map (fun { Dispatch.sender; _ } -> sender) outgoing;
          crashing = Core.crashing_pids core;
          source = plan.source;
          timely = stats.timely;
          obligated = ctx.obligated;
          decided = fam.decided_now ();
          msg_sizes =
            List.map
              (fun { Dispatch.sender; msg } -> (sender, fam.msg_size msg))
              outgoing;
        }
      in
      rounds := info :: !rounds;
      if obs_on then begin
        List.iter
          (fun (pid, size) ->
            M.observe m_msg_size (float_of_int size);
            R.emit recorder (fun () -> E.Broadcast { pid; round = k; size }))
          info.msg_sizes;
        for p = 0 to n - 1 do
          if Core.fate core p <> Step_core.Crashed then
            M.observe m_mailbox (float_of_int (Core.mailbox_pending core p))
        done;
        R.emit recorder (fun () ->
            E.Round_end
              {
                round = k;
                senders = List.length outgoing;
                delivered = stats.delivered;
                timely = stats.timely_count;
              })
      end;
      if stop_on_decision && fam.all_decided () then continue := false;
      incr round
    done;
    let trace =
      {
        Trace.n;
        inputs;
        crash;
        churn;
        env = Adversary.env adversary;
        rounds = List.rev !rounds;
      }
    in
    let all_correct_decided = fam.all_decided () in
    let rounds_executed = Int.min (!round - 1) horizon in
    if obs_on then begin
      M.set_gauge m_rounds (float_of_int rounds_executed);
      Option.iter (R.record_kernel recorder) kernel_before;
      R.emit recorder (fun () ->
          E.Run_end { rounds = rounds_executed; decided = all_correct_decided });
      R.flush recorder
    end;
    {
      trace;
      decisions = [];
      all_correct_decided;
      rounds_executed;
      messages_sent = !messages_sent;
      deliveries = !deliveries;
      timely_deliveries = !timely_deliveries;
    }
end

module Make (A : Intf.ALGORITHM) = struct
  module Core = Step_core.Consensus (A)
  module L = Loop (Core)

  let run ?observe ?(recorder = R.off) config =
    let obs_on = R.active recorder in
    let m_decisions = R.counter recorder Name.decisions in
    let m_leader_changes = R.counter recorder Name.leader_changes in
    validate ~where:"Runner.run" config;
    let core =
      Core.create ~inputs:config.inputs ~crash:config.crash ~churn:config.churn
        ~env:(Adversary.env config.adversary)
    in
    let was_leader = Array.make (Array.length config.inputs) false in
    let decisions = ref [] in
    let decided_now = ref [] in
    let on_decide ~pid ~round ~value =
      decided_now := (pid, value) :: !decided_now;
      decisions := (pid, round, value) :: !decisions
    in
    let observe_hook ~pid ~round st =
      (match observe with Some f -> f ~pid ~round st | None -> ());
      if obs_on then
        match A.leader st with
        | Some l when l <> was_leader.(pid) ->
          was_leader.(pid) <- l;
          M.incr m_leader_changes;
          R.emit recorder (fun () -> E.Leader { pid; round; leader = l })
        | Some _ | None -> ()
    in
    let compute ~round =
      decided_now := [];
      let outgoing =
        if obs_on || Option.is_some observe then
          Core.compute core ~observe:observe_hook ~on_decide
        else Core.compute core ~on_decide
      in
      List.iter
        (fun (p, v) ->
          M.incr m_decisions;
          R.emit recorder (fun () -> E.Decide { pid = p; round = round - 1; value = v }))
        (List.rev !decided_now);
      outgoing
    in
    let outcome =
      L.run ~recorder config core
        {
          L.algo = A.name;
          msg_size = A.msg_size;
          begin_round =
            (fun ?on_leave ?on_rejoin () -> Core.begin_round core ?on_leave ?on_rejoin);
          compute;
          decided_now = (fun () -> List.rev !decided_now);
          operate = (fun ~round:_ -> ());
          all_decided = (fun () -> Core.all_decided core);
        }
    in
    { outcome with decisions = List.rev !decisions }
end

module Ws = struct
  type op_spec = Step_core.op_spec =
    | Do_add of Value.t
    | Do_get
    | Do_add_with of (Value.Set.t -> Value.t)

  type workload = Step_core.workload

  let random_workload ~n ~ops_per_client ~max_start ~value_range rng =
    if ops_per_client < 0 then
      Config_error.fail ~where:"Runner.Ws.random_workload"
        (Printf.sprintf "ops_per_client must be >= 0 (got %d)" ops_per_client);
    let used = Hashtbl.create 64 in
    let rec fresh_value () =
      let v = Rng.int rng (max value_range 1) in
      if Hashtbl.mem used v then fresh_value () else (Hashtbl.add used v (); v)
    in
    List.init n (fun pid ->
        let script =
          List.init ops_per_client (fun _ ->
              let start = Rng.int_in rng 1 (max max_start 1) in
              let op = if Rng.bool rng then Do_add (fresh_value ()) else Do_get in
              (start, op))
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        (pid, script))

  type config = {
    n : int;
    crash : Crash.t;
    churn : Churn.t;
    adversary : Adversary.t;
    horizon : int;
    seed : int;
  }

  type add_record = {
    client : int;
    value : Value.t;
    invoked_round : int;
    completed_round : int option;
  }

  type outcome = {
    trace : Trace.t;
    ops : Checker.ws_op list;
    adds : add_record list;
    rounds_executed : int;
    messages_sent : int;
  }

  module Make (S : Intf.SERVICE) = struct
    module Svc = Step_core.Service (S)
    module L = Loop (Svc.Core)

    let run ?observe ?(recorder = R.off) config ~workload =
      let m_adds = R.counter recorder Name.ws_adds in
      let m_gets = R.counter recorder Name.ws_gets in
      let m_add_latency = R.histogram recorder Name.ws_add_latency_rounds in
      let { n; crash; churn; adversary; horizon; seed } = config in
      (* [max n 0]: an n below 1 is [validate]'s to report. *)
      let lockstep =
        { inputs = Array.make (max n 0) 0; crash; churn; adversary; horizon; seed;
          stop_on_decision = false }
      in
      validate ~where:"Runner.Ws.run" lockstep;
      let svc = Svc.create ~n ~crash ~churn ~env:(Adversary.env adversary) ~workload in
      let ops = ref [] in
      let adds = ref [] in
      let record_add ~client ~value ~invoked_round ~completed_round =
        ops :=
          Checker.Ws_add
            {
              add_client = client;
              add_value = value;
              add_invoked = Svc.op_time invoked_round;
              add_completed = Option.map (fun r -> Svc.compute_time (r + 1)) completed_round;
            }
          :: !ops;
        adds := { client; value; invoked_round; completed_round } :: !adds
      in
      (* A leaver's pending add, and one still pending at the end of the
         run, is recorded incomplete — the value may or may not have
         propagated; the weak-set axioms only bind completed adds. *)
      let record_pending client = function
        | Some (value, invoked_round) ->
          record_add ~client ~value ~invoked_round ~completed_round:None
        | None -> ()
      in
      let begin_round ?on_leave ?on_rejoin () =
        Svc.begin_round svc ?on_rejoin ~on_leave:(fun ~pid ~pending ->
            record_pending pid pending;
            Option.iter (fun f -> f ~pid) on_leave)
      in
      let compute ~round:k =
        Svc.compute svc ?observe ~on_add_complete:(fun ~pid ~value ~invoked_round ->
            M.observe m_add_latency (float_of_int (k - 1 - invoked_round));
            R.emit recorder (fun () -> E.Ws_add_done { pid; round = k - 1; value });
            record_add ~client:pid ~value ~invoked_round ~completed_round:(Some (k - 1)))
      in
      (* Client operations while in round k. One operation at a time per
         client; adds block until their value is written. *)
      let operate ~round:k =
        let op_time = Svc.op_time k in
        Svc.ops svc
          ~on_get:(fun ~pid ~result ->
            M.incr m_gets;
            R.emit recorder (fun () ->
                E.Ws_get { pid; round = k; size = Value.Set.cardinal result });
            ops :=
              Checker.Ws_get
                {
                  get_client = pid;
                  get_result = result;
                  get_invoked = op_time;
                  get_completed = op_time;
                }
              :: !ops)
          ~on_add:(fun ~pid ~value ->
            M.incr m_adds;
            R.emit recorder (fun () -> E.Ws_add { pid; round = k; value }))
      in
      let o =
        L.run ~recorder lockstep (Svc.core svc)
          {
            L.algo = S.name;
            msg_size = S.msg_size;
            begin_round;
            compute;
            decided_now = (fun () -> []);
            operate;
            all_decided = (fun () -> false);
          }
      in
      for p = 0 to n - 1 do
        record_pending p (Svc.blocked svc p)
      done;
      {
        trace = o.trace;
        ops = List.rev !ops;
        adds = List.rev !adds;
        rounds_executed = o.rounds_executed;
        messages_sent = o.messages_sent;
      }
  end
end
