(* The live execution backend. See runner.mli. *)

open Anon_kernel
module Backend = Anon_giraf.Backend
module Calendar = Anon_giraf.Calendar
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

type clock = Virtual | Wall

module Make (A : Anon_giraf.Intf.ALGORITHM) = struct
  type event =
    | Arrival of { src : int; sent : int; payload : A.msg }
    | Deadline of int  (* the epoch it was armed in *)

  type proc = {
    pid : int;
    pacer : Pacer.t;
    rng : Rng.t;  (* Broadcast_subset crash draws *)
    expected : bool array;
    heard : int array;  (* highest sent round seen per peer *)
    miss : int array;  (* consecutive short rounds each peer was silent *)
    mutable state : A.state;
    mutable msg : A.msg;  (* the round message, for rebroadcasts *)
    mutable round : int;  (* end-of-rounds begun: the round waited on *)
    mutable missing : int;  (* expected peers not yet heard at [round] *)
    mutable expiries : int;  (* of the current wait *)
    mutable epoch : int;  (* of the armed deadline *)
    mutable stop : stop_reason option;
    mutable decision : (int * Value.t) option;
    mutable decide_at : float;  (* clock seconds; decisions only *)
    mutable rebroadcasts : int;
  }

  let run ?(recorder = Anon_obs.Recorder.off) ~clock config =
    let module R = Anon_obs.Recorder in
    let module M = Anon_obs.Metrics in
    let module E = Anon_obs.Event in
    validate ~where:"Live.Runner.run" config;
    let n = Array.length config.inputs in
    R.emit recorder (fun () -> E.Run_start { algo = A.name; n; seed = config.seed });
    let m_decisions = R.counter recorder "live.decisions" in
    let m_crashes = R.counter recorder "live.crashes" in
    let m_timeouts = R.counter recorder "live.timeouts" in
    let m_rebroadcasts = R.counter recorder "live.rebroadcasts" in
    let m_retrans = R.counter recorder "live.wire_retransmissions" in
    let h_latency = R.histogram recorder "live.decide_latency_s" in
    let h_timeout = R.histogram recorder "live.timeout_s" in
    let transport = Transport.create ~n ~faults:config.faults ~seed:config.seed () in
    let inboxes = Backend.create ~n in
    let calendar = Calendar.create () in
    (* Times are nanoseconds since the run started, on [clock]. *)
    let ns_of_s s = int_of_float (s *. 1e9) in
    let s_of_ns t = float_of_int t /. 1e9 in
    let budget = ns_of_s config.wall_budget_s in
    (* [now ()] reads the clock; [reach t] moves it to [t]: a jump, or a
       sleep until [t] is due. *)
    let now, reach =
      match clock with
      | Virtual ->
        let t = ref 0 in
        ((fun () -> !t), fun t' -> t := t')
      | Wall ->
        let start = Anon_obs.Clock.now_ns () in
        let now () = Int64.to_int (Anon_obs.Clock.since_ns start) in
        let reach t =
          let wait = t - now () in
          if wait > 0 then Unix.sleepf (s_of_ns wait)
        in
        (now, reach)
    in
    let root_rng = Rng.make (config.seed lxor 0x5f3759df) in
    let procs =
      Array.init n (fun pid ->
          let state, msg = A.initialize config.inputs.(pid) in
          let expected = Array.make n true in
          expected.(pid) <- false;
          {
            pid;
            pacer =
              Pacer.create ~growth:config.growth ~decay:config.decay
                ~init_s:config.timeout_init_s ~max_s:config.timeout_max_s ();
            rng = Rng.split root_rng;
            expected;
            heard = Array.make n 0;
            miss = Array.make n 0;
            state;
            msg;
            round = 0;
            missing = 0;
            expiries = 0;
            epoch = 0;
            stop = None;
            decision = None;
            decide_at = 0.;
            rebroadcasts = 0;
          })
    in
    let running = ref n in
    let decisions = ref [] in
    let decide_latency = Anon_obs.Hist.create () in
    let stop p reason =
      p.stop <- Some reason;
      decr running
    in
    (* One copy per packet on the wire: the event is shared, the
       calendar files each copy under its receiver. *)
    let deliver ev ~dst ~due = Calendar.add calendar ~time:due ~pid:dst ev in
    let broadcast p ~round m =
      Transport.broadcast transport ~now:(now ()) ~src:p.pid ~round
        (deliver (Arrival { src = p.pid; sent = round; payload = m }))
    in
    let arm p =
      p.epoch <- p.epoch + 1;
      Calendar.add calendar
        ~time:(now () + ns_of_s (Pacer.current p.pacer))
        ~pid:p.pid (Deadline p.epoch)
    in
    (* End-of-round [p.round + 1]: initialize (round 1, done when [p] was
       made) or compute round [p.round]'s mailbox, then halt, crash, or
       broadcast. Returns whether [p] now waits on its new round. *)
    let end_of_round p =
      let k = p.round + 1 in
      if k > config.round_budget then begin
        stop p Round_budget_exhausted;
        false
      end
      else begin
        p.round <- k;
        let decision =
          if k = 1 then None
          else begin
            let current, fresh =
              Backend.take ~compare:A.msg_compare inboxes p.pid ~round:(k - 1)
            in
            let state, m, dec =
              A.compute p.state ~round:(k - 1) ~inbox:{ Anon_giraf.Intf.current; fresh }
            in
            p.state <- state;
            p.msg <- m;
            dec
          end
        in
        match decision with
        | Some v ->
          (* Decide and halt: the round-[k] message is not sent. *)
          let at = s_of_ns (now ()) in
          p.decision <- Some (k - 1, v);
          p.decide_at <- at;
          decisions := (p.pid, k - 1, v) :: !decisions;
          stop p Decided;
          Anon_obs.Hist.observe decide_latency at;
          M.incr m_decisions;
          M.observe h_latency at;
          R.emit recorder (fun () -> E.Decide { pid = p.pid; round = k - 1; value = v });
          false
        | None -> (
          (* Self-delivery is implicit and always timely (dispatch.ml
             does the same for the lockstep backend). *)
          let m = p.msg in
          Backend.insert inboxes p.pid ~arrival:k ~sent:k m;
          match Crash.crash_round config.crash p.pid with
          | Some r when r = k ->
            (match
               (List.find
                  (fun (ev : Crash.event) -> ev.pid = p.pid)
                  (Crash.crashing_at config.crash ~round:k))
                 .broadcast
             with
            | Crash.Silent -> ()
            | Crash.Broadcast_all -> broadcast p ~round:k m
            | Crash.Broadcast_subset ->
              let others = List.filter (fun q -> q <> p.pid) (List.init n Fun.id) in
              Transport.send_to transport ~now:(now ()) ~src:p.pid ~round:k
                ~dsts:(Rng.subset p.rng ~p:0.5 others)
                (deliver (Arrival { src = p.pid; sent = k; payload = m })));
            stop p Crashed;
            M.incr m_crashes;
            R.emit recorder (fun () -> E.Crash { pid = p.pid; round = k });
            false
          | Some _ | None ->
            broadcast p ~round:k m;
            true)
      end
    in
    (* Run end-of-rounds until [p] stops or waits on a round some
       expected peer has not yet sent. *)
    let rec advance p =
      if end_of_round p then begin
        Pacer.note_wait p.pacer;
        p.expiries <- 0;
        p.missing <- 0;
        for q = 0 to n - 1 do
          if p.expected.(q) && p.heard.(q) < p.round then p.missing <- p.missing + 1
        done;
        if p.missing = 0 then quorum p else arm p
      end
    and quorum p =
      if p.expiries = 0 then Pacer.on_quorum p.pacer;
      Array.fill p.miss 0 n 0;
      advance p
    in
    let on_arrival p ~src ~sent payload =
      let k = p.round in
      Backend.insert inboxes p.pid ~arrival:(max sent k) ~sent payload;
      if sent > p.heard.(src) then begin
        let was_missing = p.expected.(src) && p.heard.(src) < k in
        p.heard.(src) <- sent;
        if was_missing && sent >= k then begin
          p.missing <- p.missing - 1;
          if p.missing = 0 then quorum p
        end
      end
    in
    let on_deadline p =
      Pacer.on_expiry p.pacer;
      M.incr m_timeouts;
      p.expiries <- p.expiries + 1;
      if p.expiries > config.retries then begin
        (* Proceed short. Peers silent this round accumulate a miss;
           [miss_grace] in a row and they stop being expected — that is
           how halted deciders and crashers are discovered without any
           announcement. *)
        for q = 0 to n - 1 do
          if p.expected.(q) then
            if p.heard.(q) < p.round then begin
              p.miss.(q) <- p.miss.(q) + 1;
              if p.miss.(q) >= config.miss_grace then p.expected.(q) <- false
            end
            else p.miss.(q) <- 0
        done;
        advance p
      end
      else begin
        (* Retransmit: our broadcast may be what a slow peer is waiting
           on; duplicates merge under anonymity. *)
        broadcast p ~round:p.round p.msg;
        p.rebroadcasts <- p.rebroadcasts + 1;
        M.incr m_rebroadcasts;
        arm p
      end
    in
    Array.iter advance procs;
    let rec loop () =
      match Calendar.next_time calendar with
      | Some t when !running > 0 && max t (now ()) < budget ->
        reach t;
        let _, pid, ev = Option.get (Calendar.pop calendar) in
        let p = procs.(pid) in
        (if p.stop = None then
           match ev with
           | Arrival { src; sent; payload } -> on_arrival p ~src ~sent payload
           | Deadline epoch -> if epoch = p.epoch then on_deadline p);
        loop ()
      | Some _ | None -> ()
    in
    loop ();
    if !running > 0 then begin
      reach budget;
      Array.iter (fun p -> if p.stop = None then stop p Wall_budget_exhausted) procs
    end;
    let wall_s = s_of_ns (now ()) in
    let processes =
      Array.map
        (fun p ->
          {
            pid = p.pid;
            decision = p.decision;
            stop = Option.get p.stop;
            rounds_executed = p.round;
            timeouts_expired = Pacer.expiries p.pacer;
            rebroadcasts = p.rebroadcasts;
            decide_latency_s = Option.map (fun _ -> p.decide_at) p.decision;
          })
        procs
    in
    let decisions = List.rev !decisions in
    let undecided =
      List.filter (fun pid -> procs.(pid).decision = None) (Crash.correct config.crash)
    in
    let rounds_max = Array.fold_left (fun acc p -> max acc p.round) 0 procs in
    (* Elementwise max across the per-process pacer trajectories: the
       run's worst-case discovered timeout at each wait-round index. *)
    let timeout_curve =
      let trajectories = Array.map (fun p -> Pacer.trajectory p.pacer) procs in
      let len = Array.fold_left (fun acc t -> max acc (List.length t)) 0 trajectories in
      List.init len (fun i ->
          Array.fold_left
            (fun acc t -> match List.nth_opt t i with Some v -> Float.max acc v | None -> acc)
            0. trajectories)
    in
    let transport = Transport.stats transport in
    let safety =
      Anon_giraf.Checker.check_decisions ~inputs:(Array.to_list config.inputs) decisions
    in
    List.iter (M.observe h_timeout) timeout_curve;
    M.incr ~by:transport.Transport.retransmissions m_retrans;
    R.emit recorder (fun () -> E.Run_end { rounds = rounds_max; decided = undecided = [] });
    R.flush recorder;
    {
      decisions;
      all_correct_decided = undecided = [];
      undecided;
      processes;
      rounds_max;
      wall_s;
      transport;
      timeout_curve;
      decide_latency;
      safety;
    }
end
