open Anon_kernel

type op_spec = Step_core.op_spec =
  | Do_add of Value.t
  | Do_get
  | Do_add_with of (Value.Set.t -> Value.t)

type workload = (int * (int * op_spec) list) list

let random_workload ~n ~ops_per_client ~max_start ~value_range rng =
  if ops_per_client < 0 then
    Config_error.fail ~where:"Service_runner.random_workload"
      (Printf.sprintf "ops_per_client must be >= 0 (got %d)" ops_per_client);
  let fresh_value =
    let used = Hashtbl.create 64 in
    fun () ->
      let rec pick () =
        let v = Rng.int rng (max value_range 1) in
        if Hashtbl.mem used v then pick ()
        else begin
          Hashtbl.add used v ();
          v
        end
      in
      pick ()
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
  module Core = Svc.Core

  let run ?observe ?(recorder = Anon_obs.Recorder.off) config ~workload =
    let module R = Anon_obs.Recorder in
    let module M = Anon_obs.Metrics in
    let module E = Anon_obs.Event in
    let obs_on = R.active recorder in
    let m_broadcasts = R.counter recorder "service.broadcasts" in
    let m_deliveries = R.counter recorder "service.deliveries" in
    let m_adds = R.counter recorder "service.ws_adds" in
    let m_gets = R.counter recorder "service.ws_gets" in
    let m_crashes = R.counter recorder "service.crashes" in
    let m_leaves = R.counter recorder "churn.leaves" in
    let m_rejoins = R.counter recorder "churn.rejoins" in
    let m_add_latency = R.histogram recorder "service.ws_add_latency_rounds" in
    let t_compute = R.histogram recorder "phase.compute_us" in
    let t_deliver = R.histogram recorder "phase.deliver_us" in
    let n = config.n in
    let where = "Service_runner.run" in
    Churn.validate ~where ~n ~crash:config.crash ~churn:config.churn ();
    if config.horizon < 1 then
      Config_error.fail ~where
        (Printf.sprintf "horizon must be >= 1 (got %d)" config.horizon);
    R.emit recorder (fun () -> E.Run_start { algo = S.name; n; seed = config.seed });
    let rng = Rng.make config.seed in
    let crash_rng = Rng.split rng in
    let svc =
      Svc.create ~n ~crash:config.crash ~churn:config.churn
        ~env:(Adversary.env config.adversary) ~workload
    in
    let core = Svc.core svc in
    let ops = ref [] in
    let adds = ref [] in
    let rounds = ref [] in
    let messages_sent = ref 0 in
    let record_incomplete ~client ~value ~invoked_round =
      ops :=
        Checker.Ws_add
          {
            add_client = client;
            add_value = value;
            add_invoked = (2 * invoked_round) + 1;
            add_completed = None;
          }
        :: !ops;
      adds := { client; value; invoked_round; completed_round = None } :: !adds
    in
    for k = 1 to config.horizon do
      let compute_time = 2 * k in
      let op_time = (2 * k) + 1 in
      Svc.begin_round svc
        ~on_leave:(fun ~pid ~pending ->
          (* A leaver's pending add is recorded incomplete — the value may
             or may not have propagated; the weak-set axioms only bind
             completed adds. *)
          (match pending with
          | Some (value, invoked_round) ->
            record_incomplete ~client:pid ~value ~invoked_round
          | None -> ());
          M.incr m_leaves;
          R.emit recorder (fun () -> E.Churn { pid; round = k; rejoin = false }))
        ~on_rejoin:(fun ~pid ->
          M.incr m_rejoins;
          R.emit recorder (fun () -> E.Churn { pid; round = k; rejoin = true }));
      let outgoing =
        M.time t_compute (fun () ->
            Svc.compute svc ?observe
              ~on_add_complete:(fun ~pid ~value ~invoked_round ->
                M.observe m_add_latency (float_of_int (k - 1 - invoked_round));
                R.emit recorder (fun () ->
                    E.Ws_add_done { pid; round = k - 1; value });
                ops :=
                  Checker.Ws_add
                    {
                      add_client = pid;
                      add_value = value;
                      add_invoked = (2 * invoked_round) + 1;
                      add_completed = Some compute_time;
                    }
                  :: !ops;
                adds :=
                  {
                    client = pid;
                    value;
                    invoked_round;
                    completed_round = Some (k - 1);
                  }
                  :: !adds))
      in
      (* Deliveries. As in Runner, sources must reach every process that
         computes the round (not only correct ones). *)
      let ctx = Core.ctx core in
      let plan = Adversary.plan config.adversary ctx rng in
      let stats =
        M.time t_deliver (fun () ->
            Core.deliver core ~plan ~crash_rng
              ~on_deliver:(fun ~sender ~receiver ~arrival ->
                R.emit recorder (fun () ->
                    E.Deliver { sender; receiver; round = k; arrival }))
              ~on_crash:(fun ~pid ->
                M.incr m_crashes;
                R.emit recorder (fun () -> E.Crash { pid; round = k })))
      in
      messages_sent := !messages_sent + List.length outgoing;
      if obs_on then begin
        M.incr ~by:(List.length outgoing) m_broadcasts;
        M.incr ~by:stats.delivered m_deliveries
      end;
      (* Client operations while in round k. One operation at a time per
         client; adds block until their value is written. *)
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
          R.emit recorder (fun () -> E.Ws_add { pid; round = k; value }));
      let info =
        {
          Trace.round = k;
          senders = List.map (fun { Dispatch.sender; _ } -> sender) outgoing;
          crashing = Core.crashing_pids core;
          source = plan.source;
          timely = stats.timely;
          obligated = ctx.obligated;
          decided = [];
          msg_sizes =
            List.map (fun { Dispatch.sender; msg } -> (sender, S.msg_size msg)) outgoing;
        }
      in
      rounds := info :: !rounds
    done;
    (* Adds still pending at the end of the run are recorded as
       incomplete. *)
    for p = 0 to n - 1 do
      match Svc.blocked svc p with
      | None -> ()
      | Some (value, invoked_round) -> record_incomplete ~client:p ~value ~invoked_round
    done;
    let trace =
      {
        Trace.n;
        inputs = Array.make n 0;
        crash = config.crash;
        churn = config.churn;
        env = Adversary.env config.adversary;
        rounds = List.rev !rounds;
      }
    in
    if obs_on then begin
      R.emit recorder (fun () ->
          E.Run_end { rounds = config.horizon; decided = false });
      R.flush recorder
    end;
    {
      trace;
      ops = List.rev !ops;
      adds = List.rev !adds;
      rounds_executed = config.horizon;
      messages_sent = !messages_sent;
    }
end
