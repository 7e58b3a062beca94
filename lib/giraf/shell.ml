(* The unsynchronized end-of-round. See shell.mli. *)

open Anon_kernel

type step = Capped | Decided | Sent of Crash.last_broadcast

module Make (A : Intf.ALGORITHM) = struct
  module R = Anon_obs.Recorder
  module M = Anon_obs.Metrics
  module E = Anon_obs.Event

  type proc = {
    mutable round : int;  (* k_i *)
    mutable state : (A.state * A.msg) option;  (* and the round-k_i message; None until round 1 *)
    mutable stop : step option;  (* the step it stopped on *)
  }

  type t = {
    recorder : R.t;
    kernel : R.kernel_baseline;
    inputs : Value.t array;
    crash : Crash.t;
    correct : int list;
    max_rounds : int;
    procs : proc array;
    mailboxes : A.msg Backend.t;
    log : A.msg Trace.Log.t;
    mutable decisions : (int * int * Value.t) list;  (* latest first *)
    mutable running : int;
    m_broadcasts : M.counter;
    m_deliveries : M.counter;
    m_decisions : M.counter;
    m_crashes : M.counter;
    m_msg_size : M.histogram;
    t_compute : M.histogram;
  }

  let create ~recorder ~inputs ~crash ~max_rounds ~seed =
    let n = Array.length inputs in
    R.emit recorder (fun () -> E.Run_start { algo = A.name; n; seed });
    {
      recorder;
      kernel = R.kernel_baseline ();
      inputs;
      crash;
      correct = Crash.correct crash;
      max_rounds;
      procs = Array.init n (fun _ -> { round = 0; state = None; stop = None });
      mailboxes = Backend.create ~n;
      log = Trace.Log.create ();
      decisions = [];
      running = n;
      m_broadcasts = R.counter recorder Anon_obs.Name.broadcasts;
      m_deliveries = R.counter recorder Anon_obs.Name.deliveries;
      m_decisions = R.counter recorder Anon_obs.Name.decisions;
      m_crashes = R.counter recorder Anon_obs.Name.crashes;
      m_msg_size = R.histogram recorder Anon_obs.Name.msg_size;
      t_compute = R.histogram recorder Anon_obs.Name.compute_us;
    }

  let halt t pr step =
    pr.stop <- Some step;
    t.running <- t.running - 1;
    step

  (* Alg. 1 lines 5-12 for round k = k_i + 1. *)
  let end_of_round t p =
    let pr = t.procs.(p) in
    let k = pr.round + 1 in
    if k > t.max_rounds then halt t pr Capped
    else
      let st, m, decision =
        M.time t.t_compute (fun () ->
            match pr.state with
            | None ->
              let st, m = A.initialize t.inputs.(p) in
              (st, m, None)
            | Some (st, _) ->
              let inbox = Backend.take ~compare:A.msg_compare t.mailboxes p ~round:(k - 1) in
              Trace.Log.read t.log ~pid:p ~round:(k - 1) inbox.current;
              A.compute st ~round:(k - 1) ~inbox)
      in
      match decision with
      | Some v ->
        t.decisions <- (p, k - 1, v) :: t.decisions;
        Trace.Log.decide t.log ~pid:p ~round:(k - 1) v;
        M.incr t.m_decisions;
        R.emit t.recorder (fun () -> E.Decide { pid = p; round = k - 1; value = v });
        halt t pr Decided
      | None -> (
        pr.round <- k;
        pr.state <- Some (st, m);
        (* Self-delivery is implicit and always timely (Alg. 1 line 10). *)
        Backend.insert ~compare:A.msg_compare t.mailboxes p ~arrival:k ~sent:k m;
        let size = A.msg_size m in
        Trace.Log.broadcast t.log ~pid:p ~round:k ~size m;
        if R.active t.recorder then begin
          M.incr t.m_broadcasts;
          M.observe t.m_msg_size (float_of_int size);
          R.emit t.recorder (fun () -> E.Broadcast { pid = p; round = k; size })
        end;
        match Crash.event t.crash p with
        | Some ev when ev.round = k ->
          Trace.Log.crash t.log ~pid:p ~round:k;
          M.incr t.m_crashes;
          R.emit t.recorder (fun () -> E.Crash { pid = p; round = k });
          halt t pr (Sent ev.broadcast)
        | Some _ | None -> Sent Crash.Broadcast_all)

  let file t ~sender ~receiver ~sent msgs =
    let pr = t.procs.(receiver) in
    if Option.is_none pr.stop then begin
      let arrival = Int.max sent pr.round in
      List.iter (Backend.insert ~compare:A.msg_compare t.mailboxes receiver ~arrival ~sent) msgs;
      if R.active t.recorder then begin
        M.incr t.m_deliveries;
        R.emit t.recorder (fun () -> E.Deliver { sender; receiver; round = sent; arrival })
      end
    end

  let held t p ~round =
    let arrival = Int.max round t.procs.(p).round in
    Backend.peek ~compare:A.msg_compare t.mailboxes p ~arrival ~sent:round

  let round t p = t.procs.(p).round
  let message t p = snd (Option.get t.procs.(p).state)

  let stop t p = t.procs.(p).stop
  let stopped t p = Option.is_some t.procs.(p).stop
  let decided t p = match t.procs.(p).stop with Some Decided -> true | Some _ | None -> false
  let running t = t.running
  let all_correct_decided t = List.for_all (decided t) t.correct
  let decisions t = List.rev t.decisions

  let finish t ~env =
    R.record_kernel t.recorder t.kernel;
    let rounds = Array.fold_left (fun acc pr -> Int.max acc pr.round) 0 t.procs in
    R.emit t.recorder (fun () -> E.Run_end { rounds; decided = all_correct_decided t });
    R.flush t.recorder;
    lazy (Trace.of_log ~msg_compare:A.msg_compare ~inputs:t.inputs ~crash:t.crash ~env t.log)
end
