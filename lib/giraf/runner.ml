open Anon_kernel

type config = {
  inputs : Value.t array;
  crash : Crash.t;
  churn : Churn.t;
  adversary : Adversary.t;
  horizon : int;
  seed : int;
  stop_on_decision : bool;
}

let validate ~where config =
  Churn.validate ~where ~n:(Array.length config.inputs) ~crash:config.crash
    ~churn:config.churn ();
  Env.validate ~where (Adversary.env config.adversary);
  if config.horizon < 1 then
    Config_error.fail ~where
      (Printf.sprintf "horizon must be >= 1 (got %d)" config.horizon)

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

module Make (A : Intf.ALGORITHM) = struct
  module Core = Step_core.Consensus (A)

  let decided core = Intf.all_halted Core.fate core (Core.correct_stayers core)

  let run ?observe ?(recorder = Anon_obs.Recorder.off) config =
    let module R = Anon_obs.Recorder in
    let module M = Anon_obs.Metrics in
    let module E = Anon_obs.Event in
    let obs_on = R.active recorder in
    let kernel_before = if obs_on then Some (R.kernel_baseline ()) else None in
    let m_broadcasts = R.counter recorder "runner.broadcasts" in
    let m_deliveries = R.counter recorder "runner.deliveries" in
    let m_timely = R.counter recorder "runner.timely_deliveries" in
    let m_decisions = R.counter recorder "runner.decisions" in
    let m_crashes = R.counter recorder "runner.crashes" in
    let m_leaves = R.counter recorder "churn.leaves" in
    let m_rejoins = R.counter recorder "churn.rejoins" in
    let m_leader_changes = R.counter recorder "runner.leader_changes" in
    let m_rounds = R.gauge recorder "runner.rounds" in
    let m_msg_size = R.histogram recorder "runner.msg_size" in
    let m_mailbox = R.histogram recorder "runner.mailbox_pending" in
    let t_compute = R.histogram recorder "phase.compute_us" in
    let t_deliver = R.histogram recorder "phase.deliver_us" in
    validate ~where:"Runner.run" config;
    let n = Array.length config.inputs in
    let rng = Rng.make config.seed in
    let crash_rng = Rng.split rng in
    let core =
      Core.create ~inputs:config.inputs ~crash:config.crash ~churn:config.churn
        ~env:(Adversary.env config.adversary)
    in
    R.emit recorder (fun () -> E.Run_start { algo = A.name; n; seed = config.seed });
    let was_leader = Array.make n false in
    let decisions = ref [] in
    let rounds = ref [] in
    let messages_sent = ref 0 in
    let deliveries = ref 0 in
    let timely_deliveries = ref 0 in
    let decided_now = ref [] in
    let on_leave ~pid:_ = M.incr m_leaves in
    let on_rejoin ~pid:_ = M.incr m_rejoins in
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
    let round = ref 1 in
    let continue = ref true in
    while !continue && !round <= config.horizon do
      let k = !round in
      R.emit recorder (fun () -> E.Round_start { round = k });
      if obs_on then begin
        Core.begin_round core
          ~on_leave:(fun ~pid ->
            on_leave ~pid;
            R.emit recorder (fun () -> E.Churn { pid; round = k; rejoin = false }))
          ~on_rejoin:(fun ~pid ->
            on_rejoin ~pid;
            R.emit recorder (fun () -> E.Churn { pid; round = k; rejoin = true }))
      end
      else Core.begin_round core;
      decided_now := [];
      let outgoing =
        if obs_on || Option.is_some observe then
          M.time t_compute (fun () ->
              Core.compute core ~observe:observe_hook ~on_decide)
        else Core.compute core ~on_decide
      in
      List.iter
        (fun (p, v) ->
          M.incr m_decisions;
          R.emit recorder (fun () -> E.Decide { pid = p; round = k - 1; value = v }))
        (List.rev !decided_now);
      (* Adversarial deliveries. A source must reach every process that
         will compute this round — not only the correct ones; see
         DESIGN.md §5 and experiment A2 for what breaks under the paper's
         literal §2.3 reading. *)
      let ctx = Core.ctx core in
      let plan = Adversary.plan config.adversary ctx rng in
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
      let info =
        {
          Trace.round = k;
          senders = List.map (fun { Dispatch.sender; _ } -> sender) outgoing;
          crashing = Core.crashing_pids core;
          source = plan.source;
          timely = stats.timely;
          obligated = ctx.obligated;
          decided = List.rev !decided_now;
          msg_sizes =
            List.map
              (fun { Dispatch.sender; msg } -> (sender, A.msg_size msg))
              outgoing;
        }
      in
      rounds := info :: !rounds;
      if obs_on then begin
        List.iter
          (fun ({ Dispatch.sender; _ }, (_, size)) ->
            M.observe m_msg_size (float_of_int size);
            R.emit recorder (fun () ->
                E.Broadcast { pid = sender; round = k; size }))
          (List.combine outgoing info.msg_sizes);
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
      if config.stop_on_decision && decided core then continue := false;
      incr round
    done;
    let trace =
      {
        Trace.n;
        inputs = config.inputs;
        crash = config.crash;
        churn = config.churn;
        env = Adversary.env config.adversary;
        rounds = List.rev !rounds;
      }
    in
    let all_correct_decided = decided core in
    let rounds_executed = Int.min (!round - 1) config.horizon in
    if obs_on then begin
      M.set_gauge m_rounds (float_of_int rounds_executed);
      (match kernel_before with
      | Some b -> R.record_kernel recorder b
      | None -> ());
      R.emit recorder (fun () ->
          E.Run_end { rounds = rounds_executed; decided = all_correct_decided });
      R.flush recorder
    end;
    {
      trace;
      decisions = List.rev !decisions;
      all_correct_decided;
      rounds_executed;
      messages_sent = !messages_sent;
      deliveries = !deliveries;
      timely_deliveries = !timely_deliveries;
    }
  end
