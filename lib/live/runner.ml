(* The live execution backend. See runner.mli. *)

open Anon_kernel
module Calendar = Anon_giraf.Calendar
module Crash = Anon_giraf.Crash
module Shell = Anon_giraf.Shell
module Config_error = Anon_giraf.Config_error
module Netfault = Anon_chaos.Netfault

type config = {
  inputs : Value.t array;
  crash : Crash.t;
  faults : Netfault.spec;
  timeout_init_s : float;
  timeout_max_s : float;
  round_budget : int;
  wall_budget_s : float;
  seed : int;
}

let validate ~where config =
  Anon_giraf.Churn.validate ~where ~n:(Array.length config.inputs) ~crash:config.crash ();
  ignore (Netfault.validate ~where config.faults);
  (* Pacer.create re-checks at run time; validating here too gives config
     construction the same fail-fast contract as the lockstep runner. *)
  ignore (Pacer.create ~init_s:config.timeout_init_s ~max_s:config.timeout_max_s ());
  if config.round_budget < 1 then
    Config_error.fail ~where
      (Printf.sprintf "round_budget must be >= 1 (got %d)" config.round_budget);
  if not (Float.is_finite config.wall_budget_s && config.wall_budget_s > 0.) then
    Config_error.fail ~where
      (Printf.sprintf "wall_budget must be finite and > 0 (got %g)"
         config.wall_budget_s)

let default_config ?(timeout_init_s = 0.02) ?(timeout_max_s = 1.0) ?(round_budget = 200)
    ?(wall_budget_s = 30.0) ?(seed = 42) ?(faults = Netfault.none) ~inputs ~crash () =
  let config =
    {
      inputs = Array.of_list inputs;
      crash;
      faults;
      timeout_init_s;
      timeout_max_s;
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
  stop : stop_reason;
  rounds_executed : int;
  timeouts_expired : int;
  rebroadcasts : int;
}

type outcome = {
  trace : Anon_giraf.Trace.t Lazy.t;
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

(* Timeout expiries (each with a rebroadcast) before a round proceeds
   short, and consecutive short rounds before a silent peer stops being
   expected. *)
let retries = 3
let miss_grace = 2

module Make (A : Anon_giraf.Intf.ALGORITHM) = struct
  module Sh = Shell.Make (A)

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
    mutable missing : int;  (* expected peers not yet heard at k_i *)
    mutable expiries : int;  (* of the current wait *)
    mutable epoch : int;  (* of the armed deadline *)
    mutable rebroadcasts : int;
  }

  let run ?(recorder = Anon_obs.Recorder.off) ~clock config =
    let module R = Anon_obs.Recorder in
    let module M = Anon_obs.Metrics in
    validate ~where:"Live.Runner.run" config;
    let n = Array.length config.inputs in
    let sh =
      Sh.create ~recorder ~inputs:config.inputs ~crash:config.crash
        ~max_rounds:config.round_budget ~seed:config.seed
    in
    let m_timeouts = R.counter recorder "live.timeouts" in
    let m_rebroadcasts = R.counter recorder "live.rebroadcasts" in
    let m_retrans = R.counter recorder "live.wire_retransmissions" in
    let h_latency = R.histogram recorder "live.decide_latency_s" in
    let h_timeout = R.histogram recorder "live.timeout_s" in
    let transport = Transport.create ~n ~faults:config.faults ~seed:config.seed () in
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
          let expected = Array.make n true in
          expected.(pid) <- false;
          {
            pid;
            pacer = Pacer.create ~init_s:config.timeout_init_s ~max_s:config.timeout_max_s ();
            rng = Rng.split root_rng;
            expected;
            heard = Array.make n 0;
            miss = Array.make n 0;
            missing = 0;
            expiries = 0;
            epoch = 0;
            rebroadcasts = 0;
          })
    in
    let decide_latency = Anon_obs.Hist.create () in
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
    (* [p]'s next end-of-round, and its send. Returns whether [p] now
       waits on its new round. *)
    let end_of_round p =
      match Sh.end_of_round sh p.pid with
      | Shell.Capped -> false
      | Shell.Decided ->
        let at = s_of_ns (now ()) in
        Anon_obs.Hist.observe decide_latency at;
        M.observe h_latency at;
        false
      | Shell.Sent kind ->
        let k = Sh.round sh p.pid and m = Sh.message sh p.pid in
        (match kind with
        | Crash.Broadcast_all -> broadcast p ~round:k m
        | Crash.Silent | Crash.Broadcast_subset ->
          let others = List.filter (fun q -> q <> p.pid) (List.init n Fun.id) in
          Transport.send_to transport ~now:(now ()) ~src:p.pid ~round:k
            ~dsts:(Shell.reach kind p.rng others)
            (deliver (Arrival { src = p.pid; sent = k; payload = m })));
        not (Sh.stopped sh p.pid)
    in
    (* Run end-of-rounds until [p] stops or waits on a round some
       expected peer has not yet sent. *)
    let rec advance p =
      if end_of_round p then begin
        Pacer.note_wait p.pacer;
        p.expiries <- 0;
        p.missing <- 0;
        let k = Sh.round sh p.pid in
        for q = 0 to n - 1 do
          if p.expected.(q) && p.heard.(q) < k then p.missing <- p.missing + 1
        done;
        if p.missing = 0 then quorum p else arm p
      end
    and quorum p =
      if p.expiries = 0 then Pacer.on_quorum p.pacer;
      Array.fill p.miss 0 n 0;
      advance p
    in
    let on_arrival p ~src ~sent payload =
      let k = Sh.round sh p.pid in
      Sh.file sh ~sender:src ~receiver:p.pid ~sent [ payload ];
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
      let k = Sh.round sh p.pid in
      if p.expiries > retries then begin
        (* Proceed short. Peers silent this round accumulate a miss;
           [miss_grace] in a row and they stop being expected — that is
           how halted deciders and crashers are discovered without any
           announcement. *)
        for q = 0 to n - 1 do
          if p.expected.(q) then
            if p.heard.(q) < k then begin
              p.miss.(q) <- p.miss.(q) + 1;
              if p.miss.(q) >= miss_grace then p.expected.(q) <- false
            end
            else p.miss.(q) <- 0
        done;
        advance p
      end
      else begin
        (* Retransmit: our broadcast may be what a slow peer is waiting
           on; duplicates merge under anonymity. *)
        broadcast p ~round:k (Sh.message sh p.pid);
        p.rebroadcasts <- p.rebroadcasts + 1;
        M.incr m_rebroadcasts;
        arm p
      end
    in
    Array.iter advance procs;
    let rec loop () =
      match Calendar.next_time calendar with
      | Some t when Sh.running sh > 0 && max t (now ()) < budget ->
        reach t;
        let _, pid, ev = Option.get (Calendar.pop calendar) in
        let p = procs.(pid) in
        (if not (Sh.stopped sh pid) then
           match ev with
           | Arrival { src; sent; payload } -> on_arrival p ~src ~sent payload
           | Deadline epoch -> if epoch = p.epoch then on_deadline p);
        loop ()
      | Some _ | None -> ()
    in
    loop ();
    if Sh.running sh > 0 then reach budget;
    let wall_s = s_of_ns (now ()) in
    let processes =
      Array.map
        (fun p ->
          {
            pid = p.pid;
            stop =
              (match Sh.stop sh p.pid with
              | None -> Wall_budget_exhausted
              | Some Shell.Capped -> Round_budget_exhausted
              | Some Shell.Decided -> Decided
              | Some (Shell.Sent _) -> Crashed);
            rounds_executed = Sh.round sh p.pid;
            timeouts_expired = Pacer.expiries p.pacer;
            rebroadcasts = p.rebroadcasts;
          })
        procs
    in
    let decisions = Sh.decisions sh in
    let undecided =
      List.filter (fun pid -> not (Sh.decided sh pid)) (Crash.correct config.crash)
    in
    let rounds_max = Array.fold_left (fun acc p -> max acc p.rounds_executed) 0 processes in
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
    {
      trace = Sh.finish sh ~env:Anon_giraf.Env.Async;
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
