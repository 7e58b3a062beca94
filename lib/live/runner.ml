(* The live execution backend. See runner.mli. *)

open Anon_kernel
module Backend = Anon_giraf.Backend
module Crash = Anon_giraf.Crash
module Config_error = Anon_giraf.Config_error
module Netfault = Anon_chaos.Netfault

type config = {
  inputs : Value.t array;
  crash : Crash.t;
  faults : Netfault.spec;
  timeout_init_s : float;
  timeout_max_s : float;
  growth : float;
  decay : float;
  retries : int;
  miss_grace : int;
  round_budget : int;
  wall_budget_s : float;
  seed : int;
}

let validate ~where config =
  Anon_giraf.Churn.validate ~where ~n:(Array.length config.inputs) ~crash:config.crash ();
  ignore (Netfault.validate ~where config.faults);
  (* Pacer.create re-checks at run time; validating here too gives config
     construction the same fail-fast contract as the lockstep runner. *)
  ignore
    (Pacer.create ~growth:config.growth ~decay:config.decay
       ~init_s:config.timeout_init_s ~max_s:config.timeout_max_s ());
  if config.retries < 0 then
    Config_error.fail ~where
      (Printf.sprintf "retries must be >= 0 (got %d)" config.retries);
  if config.miss_grace < 1 then
    Config_error.fail ~where
      (Printf.sprintf "miss_grace must be >= 1 (got %d)" config.miss_grace);
  if config.round_budget < 1 then
    Config_error.fail ~where
      (Printf.sprintf "round_budget must be >= 1 (got %d)" config.round_budget);
  if not (Float.is_finite config.wall_budget_s && config.wall_budget_s > 0.) then
    Config_error.fail ~where
      (Printf.sprintf "wall_budget must be finite and > 0 (got %g)"
         config.wall_budget_s)

let default_config ?(timeout_init_s = 0.02) ?(timeout_max_s = 1.0) ?(growth = 2.0)
    ?(decay = 0.9) ?(retries = 3) ?(miss_grace = 2) ?(round_budget = 200)
    ?(wall_budget_s = 30.0) ?(seed = 42) ?(faults = Netfault.none) ~inputs ~crash () =
  let config =
    {
      inputs = Array.of_list inputs;
      crash;
      faults;
      timeout_init_s;
      timeout_max_s;
      growth;
      decay;
      retries;
      miss_grace;
      round_budget;
      wall_budget_s;
      seed;
    }
  in
  validate ~where:"Live.Runner.default_config" config;
  config

type stop_reason = Decided | Crashed | Round_budget_exhausted | Wall_budget_exhausted

type process_report = {
  pid : int;
  decision : (int * Value.t) option;
  stop : stop_reason;
  rounds_executed : int;
  timeouts_expired : int;
  rebroadcasts : int;
  decide_latency_s : float option;
}

type outcome = {
  decisions : (int * int * Value.t) list;
  all_correct_decided : bool;
  undecided : int list;
  processes : process_report array;
  rounds_max : int;
  wall_s : float;
  transport : Transport.stats;
  timeout_curve : float list;
  decide_latency : Anon_obs.Hist.t;
  safety : Anon_giraf.Checker.violation list;
}

(* Per-process scratch: written only by the owning thread, read by the
   main thread after the join. *)
type cell = {
  mutable c_decision : (int * Value.t) option;
  mutable c_decide_at : float;  (* seconds since run start; decisions only *)
  mutable c_stop : stop_reason;
  mutable c_rounds : int;
  mutable c_rebroadcasts : int;
  pacer : Pacer.t;
}

module Make (A : Anon_giraf.Intf.ALGORITHM) = struct
  (* One process's end-of-round loop (Alg. 1), run on its own thread. *)
  let run_process ~config ~transport ~inboxes ~start_s ~wall_deadline ~rng ~cell pid =
    let n = Array.length config.inputs in
    let insert ~arrival ~sent m =
      Backend.insert ~compare:A.msg_compare inboxes pid ~arrival ~sent m
    in
    let st = ref None in
    let expected = Array.make n true in
    let heard = Array.make n 0 in  (* highest sent round seen per peer *)
    let miss = Array.make n 0 in
    expected.(pid) <- false;
    (* Wait until every still-expected peer's round-[k] message arrived,
       pacing with the adaptive timeout. Returns [false] on wall-budget
       exhaustion. Drained packets join the inbox with
       [arrival = max sent k]: ripe-now packets for rounds <= k are late
       by exactly the lockstep clamp, faster peers' future rounds stay
       timely for when this process gets there. *)
    let wait_round k my_msg =
      Pacer.note_wait cell.pacer;
      let expiries = ref 0 in
      let result = ref None in
      let deadline = ref (Transport.now_s () +. Pacer.current cell.pacer) in
      while !result = None do
        List.iter
          (fun (src, sent, payload) ->
            if sent > heard.(src) then heard.(src) <- sent;
            insert ~arrival:(max sent k) ~sent payload)
          (Transport.drain transport ~dst:pid);
        let missing = ref 0 in
        for q = 0 to n - 1 do
          if expected.(q) && heard.(q) < k then incr missing
        done;
        if !missing = 0 then begin
          if !expiries = 0 then Pacer.on_quorum cell.pacer;
          for q = 0 to n - 1 do
            miss.(q) <- 0
          done;
          result := Some true
        end
        else begin
          let now = Transport.now_s () in
          if now >= wall_deadline then result := Some false
          else if now >= !deadline then begin
            Pacer.on_expiry cell.pacer;
            incr expiries;
            if !expiries > config.retries then begin
              (* Proceed short. Peers silent this round accumulate a
                 miss; [miss_grace] in a row and they stop being
                 expected — that is how halted deciders and crashers are
                 discovered without any announcement. *)
              for q = 0 to n - 1 do
                if expected.(q) then
                  if heard.(q) < k then begin
                    miss.(q) <- miss.(q) + 1;
                    if miss.(q) >= config.miss_grace then expected.(q) <- false
                  end
                  else miss.(q) <- 0
              done;
              result := Some true
            end
            else begin
              (* Retransmit: our broadcast may be what a slow peer is
                 waiting on; duplicates merge under anonymity. *)
              Transport.broadcast transport ~src:pid ~round:k my_msg;
              cell.c_rebroadcasts <- cell.c_rebroadcasts + 1;
              deadline := Transport.now_s () +. Pacer.current cell.pacer
            end
          end
          else Thread.delay 0.0003
        end
      done;
      Option.get !result
    in
    let halted = ref false in
    let k = ref 1 in
    while not !halted do
      let kk = !k in
      if kk > config.round_budget then begin
        cell.c_stop <- Round_budget_exhausted;
        halted := true
      end
      else begin
        cell.c_rounds <- kk;
        (* End-of-round [kk]: initialize, or compute round [kk-1]'s
           mailbox through the shared backend seam. *)
        let outgoing =
          match !st with
          | None ->
            let s, m = A.initialize config.inputs.(pid) in
            st := Some s;
            Some m
          | Some s -> (
            let current, fresh =
              Backend.take ~compare:A.msg_compare inboxes pid ~round:(kk - 1)
            in
            let s', m, dec =
              A.compute s ~round:(kk - 1) ~inbox:{ Anon_giraf.Intf.current; fresh }
            in
            st := Some s';
            match dec with
            | Some v ->
              (* Decide and halt: the round-[kk] message is not sent. *)
              cell.c_decision <- Some (kk - 1, v);
              cell.c_decide_at <- Transport.now_s () -. start_s;
              cell.c_stop <- Decided;
              halted := true;
              None
            | None -> Some m)
        in
        match outgoing with
        | None -> ()
        | Some m -> (
          (* Self-delivery is implicit and always timely (dispatch.ml
             does the same for the lockstep backend). *)
          insert ~arrival:kk ~sent:kk m;
          match Crash.crash_round config.crash pid with
          | Some r when r = kk ->
            (match (Crash.crashing_at config.crash ~round:kk
                    |> List.find (fun (ev : Crash.event) -> ev.pid = pid))
                     .broadcast
            with
            | Crash.Silent -> ()
            | Crash.Broadcast_all -> Transport.broadcast transport ~src:pid ~round:kk m
            | Crash.Broadcast_subset ->
              let others =
                List.filter (fun q -> q <> pid) (List.init n Fun.id)
              in
              Transport.send_to transport ~src:pid ~round:kk
                ~dsts:(Rng.subset rng ~p:0.5 others)
                m);
            cell.c_stop <- Crashed;
            halted := true
          | Some _ | None ->
            Transport.broadcast transport ~src:pid ~round:kk m;
            if wait_round kk m then incr k
            else begin
              cell.c_stop <- Wall_budget_exhausted;
              halted := true
            end)
      end
    done

  let run ?(recorder = Anon_obs.Recorder.off) config =
    let module R = Anon_obs.Recorder in
    let module M = Anon_obs.Metrics in
    let module E = Anon_obs.Event in
    validate ~where:"Live.Runner.run" config;
    let n = Array.length config.inputs in
    let transport =
      Transport.create ~n ~faults:config.faults ~seed:config.seed ()
    in
    (* One mailbox per process; each thread touches only its own. *)
    let inboxes = Backend.create ~n in
    let root_rng = Rng.make (config.seed lxor 0x5f3759df) in
    let rngs = Array.init n (fun _ -> Rng.split root_rng) in
    let cells =
      Array.init n (fun _ ->
          {
            c_decision = None;
            c_decide_at = 0.;
            c_stop = Wall_budget_exhausted;
            c_rounds = 0;
            c_rebroadcasts = 0;
            pacer =
              Pacer.create ~growth:config.growth ~decay:config.decay
                ~init_s:config.timeout_init_s ~max_s:config.timeout_max_s ();
          })
    in
    let start_s = Transport.now_s () in
    let wall_deadline = start_s +. config.wall_budget_s in
    let threads =
      Array.init n (fun pid ->
          Thread.create
            (fun () ->
              run_process ~config ~transport ~inboxes ~start_s ~wall_deadline
                ~rng:rngs.(pid) ~cell:cells.(pid) pid)
            ())
    in
    Array.iter Thread.join threads;
    let wall_s = Transport.now_s () -. start_s in
    let processes =
      Array.mapi
        (fun pid c ->
          {
            pid;
            decision = c.c_decision;
            stop = c.c_stop;
            rounds_executed = c.c_rounds;
            timeouts_expired = Pacer.expiries c.pacer;
            rebroadcasts = c.c_rebroadcasts;
            decide_latency_s =
              (match c.c_decision with Some _ -> Some c.c_decide_at | None -> None);
          })
        cells
    in
    let decisions =
      Array.to_list cells
      |> List.mapi (fun pid c ->
             match c.c_decision with
             | Some (r, v) -> [ (c.c_decide_at, (pid, r, v)) ]
             | None -> [])
      |> List.concat
      |> List.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
      |> List.map snd
    in
    let undecided =
      List.filter
        (fun pid -> cells.(pid).c_decision = None)
        (Crash.correct config.crash)
    in
    let rounds_max = Array.fold_left (fun acc c -> max acc c.c_rounds) 0 cells in
    let decide_latency = Anon_obs.Hist.create () in
    Array.iter
      (fun c ->
        match c.c_decision with
        | Some _ -> Anon_obs.Hist.observe decide_latency c.c_decide_at
        | None -> ())
      cells;
    (* Elementwise max across the per-process pacer trajectories: the
       run's worst-case discovered timeout at each wait-round index. *)
    let timeout_curve =
      let trajectories = Array.map (fun c -> Pacer.trajectory c.pacer) cells in
      let len = Array.fold_left (fun acc t -> max acc (List.length t)) 0 trajectories in
      List.init len (fun i ->
          Array.fold_left
            (fun acc t -> match List.nth_opt t i with Some v -> Float.max acc v | None -> acc)
            0. trajectories)
    in
    let safety =
      Anon_giraf.Checker.check_decisions ~inputs:(Array.to_list config.inputs) decisions
    in
    (* Observability is aggregated post-join: recorders are not
       thread-safe, and the event stream only needs decide order, which
       the wall-clock timestamps preserve. *)
    if R.active recorder then begin
      R.emit recorder (fun () -> E.Run_start { algo = A.name; n; seed = config.seed });
      let m_decisions = R.counter recorder "live.decisions" in
      let m_crashes = R.counter recorder "live.crashes" in
      let m_timeouts = R.counter recorder "live.timeouts" in
      let m_rebroadcasts = R.counter recorder "live.rebroadcasts" in
      let m_retrans = R.counter recorder "live.wire_retransmissions" in
      let h_latency = R.histogram recorder "live.decide_latency_s" in
      let h_timeout = R.histogram recorder "live.timeout_s" in
      List.iter
        (fun (pid, round, value) ->
          M.incr m_decisions;
          R.emit recorder (fun () -> E.Decide { pid; round; value }))
        decisions;
      Array.iter
        (fun p ->
          if p.stop = Crashed then begin
            M.incr m_crashes;
            R.emit recorder (fun () -> E.Crash { pid = p.pid; round = p.rounds_executed })
          end;
          M.incr ~by:p.timeouts_expired m_timeouts;
          M.incr ~by:p.rebroadcasts m_rebroadcasts;
          Option.iter (M.observe h_latency) p.decide_latency_s)
        processes;
      List.iter (M.observe h_timeout) timeout_curve;
      M.incr ~by:(Transport.stats transport).Transport.retransmissions m_retrans;
      R.emit recorder (fun () ->
          E.Run_end { rounds = rounds_max; decided = undecided = [] });
      R.flush recorder
    end;
    {
      decisions;
      all_correct_decided = undecided = [];
      undecided;
      processes;
      rounds_max;
      wall_s;
      transport = Transport.stats transport;
      timeout_curve;
      decide_latency;
      safety;
    }
end
