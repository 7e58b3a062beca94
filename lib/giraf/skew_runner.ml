open Anon_kernel

type pace_fn = pid:int -> round:int -> Rng.t -> int
type delay_fn = sender:int -> receiver:int -> round:int -> Rng.t -> int

let uniform_pace ~max ~pid:_ ~round:_ rng = Rng.int_in rng 1 (Stdlib.max 1 max)
let fixed_pace p ~pid:_ ~round:_ _rng = Stdlib.max 1 p
let uniform_delay ~max ~sender:_ ~receiver:_ ~round:_ rng =
  Rng.int_in rng 1 (Stdlib.max 1 max)
let fixed_delay d ~sender:_ ~receiver:_ ~round:_ _rng = Stdlib.max 1 d

type config = {
  inputs : Value.t list;
  crash : Crash.t;
  horizon_ticks : int;
  max_rounds : int;
  seed : int;
  pace : pace_fn;
  delay : delay_fn;
  stop_on_decision : bool;
}

let validate ~where config =
  Churn.validate ~where ~n:(List.length config.inputs) ~crash:config.crash ();
  if config.horizon_ticks < 1 then
    Config_error.fail ~where
      (Printf.sprintf "horizon_ticks must be >= 1 (got %d)" config.horizon_ticks);
  if config.max_rounds < 1 then
    Config_error.fail ~where
      (Printf.sprintf "max_rounds must be >= 1 (got %d)" config.max_rounds)

let default_config ?(horizon_ticks = 2_000) ?(max_rounds = 400) ?(seed = 42)
    ?(pace = fixed_pace 1) ?(delay = fixed_delay 1) ?(stop_on_decision = true)
    ~inputs ~crash () =
  let config =
    { inputs; crash; horizon_ticks; max_rounds; seed; pace; delay; stop_on_decision }
  in
  validate ~where:"Skew_runner.default_config" config;
  config

type outcome = {
  trace : Trace.t;
  decisions : (int * int * Value.t) list;
  all_correct_decided : bool;
  ticks : int;
  rounds_completed : int array;
}

module Make (A : Intf.ALGORITHM) = struct
  type proc = {
    pid : int;
    mutable st : A.state option;
    mutable round : int;  (* end-of-rounds performed (k_i) *)
    mutable stopped : bool;  (* halted, crashed, or past max_rounds *)
    mutable halted : bool;  (* decided *)
    rounds_msgs : (int, A.msg list) Hashtbl.t;  (* M_i[k], deduped+sorted *)
    mutable fresh : (int * A.msg) list;  (* arrivals since last compute, reversed *)
    compute_log : (int, A.msg list) Hashtbl.t;  (* round -> current at compute *)
  }

  (* A relayed round set reaching a receiver, or a process's next
     end-of-round. *)
  type event = Delivery of int * int * int * A.msg list | End_of_round

  let current_of proc k =
    Option.value ~default:[] (Hashtbl.find_opt proc.rounds_msgs k)

  (* Merge a message into M_i[k]; returns whether it was new. *)
  let insert proc ~k msg =
    let existing = current_of proc k in
    if List.exists (fun m -> A.msg_compare m msg = 0) existing then false
    else begin
      Hashtbl.replace proc.rounds_msgs k (List.sort A.msg_compare (msg :: existing));
      true
    end

  let run ?(env = Env.Async) ?(recorder = Anon_obs.Recorder.off) config =
    let module R = Anon_obs.Recorder in
    let module M = Anon_obs.Metrics in
    let module E = Anon_obs.Event in
    let obs_on = R.active recorder in
    let kernel_before = if obs_on then Some (R.kernel_baseline ()) else None in
    let m_broadcasts = R.counter recorder "skew.broadcasts" in
    let m_deliveries = R.counter recorder "skew.deliveries" in
    let m_decisions = R.counter recorder "skew.decisions" in
    let m_crashes = R.counter recorder "skew.crashes" in
    let m_ticks = R.gauge recorder "skew.ticks" in
    let m_msg_size = R.histogram recorder "skew.msg_size" in
    let t_compute = R.histogram recorder "phase.compute_us" in
    validate ~where:"Skew_runner.run" config;
    let inputs = Array.of_list config.inputs in
    let n = Array.length inputs in
    R.emit recorder (fun () ->
        E.Run_start { algo = A.name; n; seed = config.seed });
    let rng = Rng.make config.seed in
    let crash_rng = Rng.split rng in
    let correct = Crash.correct config.crash in
    let procs =
      Array.init n (fun pid ->
          {
            pid;
            st = None;
            round = 0;
            stopped = false;
            halted = false;
            rounds_msgs = Hashtbl.create 64;
            fresh = [];
            compute_log = Hashtbl.create 64;
          })
    in
    (* A tick's deliveries run in the order they were scheduled, filed
       under pid -1 ahead of its end-of-rounds, which run in pid order. *)
    let calendar = Calendar.create () in
    let decisions = ref [] in
    let sent_msgs : (int * int, A.msg) Hashtbl.t = Hashtbl.create 256 in
    let crashed_at : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    let decided_at : (int, (int * Value.t) list) Hashtbl.t = Hashtbl.create 16 in
    let messages_broadcast = ref 0 in
    let push tbl k x =
      Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    in
    let all_correct_decided () =
      List.for_all (fun p -> procs.(p).halted) correct
    in
    (* One end-of-round of [proc] at tick [t] (Alg. 1 lines 5-12). *)
    let fire proc t =
      let next = proc.round + 1 in
      let crashing_now = Crash.crash_round config.crash proc.pid = Some next in
      if next > config.max_rounds then proc.stopped <- true
      else begin
          let result =
            M.time t_compute (fun () ->
                if next = 1 then begin
                  let st, m = A.initialize inputs.(proc.pid) in
                  proc.st <- Some st;
                  Some m
                end
                else begin
                  let current = current_of proc (next - 1) in
                  Hashtbl.replace proc.compute_log (next - 1) current;
                  let arrived = proc.fresh in
                  let fresh = lazy (List.rev arrived) in
                  proc.fresh <- [];
                  let st = match proc.st with Some st -> st | None -> assert false in
                  let st', m, dec =
                    A.compute st ~round:(next - 1) ~inbox:{ Intf.current; fresh }
                  in
                  proc.st <- Some st';
                  match dec with
                  | Some v ->
                    decisions := (proc.pid, next - 1, v) :: !decisions;
                    push decided_at (next - 1) (proc.pid, v);
                    proc.halted <- true;
                    proc.stopped <- true;
                    M.incr m_decisions;
                    R.emit recorder (fun () ->
                        E.Decide { pid = proc.pid; round = next - 1; value = v });
                    None
                  | None -> Some m
                end)
          in
          match result with
          | None -> ()
          | Some m ->
            proc.round <- next;
            ignore (insert proc ~k:next m);
            proc.fresh <- (next, m) :: proc.fresh;
            Hashtbl.replace sent_msgs (proc.pid, next) m;
            incr messages_broadcast;
            if obs_on then begin
              M.incr m_broadcasts;
              M.observe m_msg_size (float_of_int (A.msg_size m));
              R.emit recorder (fun () ->
                  E.Broadcast { pid = proc.pid; round = next; size = A.msg_size m })
            end;
            (* Broadcast the whole round set: the relay that lets a
               receiver obtain a message through a third party. *)
            let snapshot = current_of proc next in
            let receivers =
              let others =
                List.filter
                  (fun q -> q <> proc.pid && not procs.(q).stopped)
                  (List.init n Fun.id)
              in
              if crashing_now then
                match
                  List.find_opt
                    (fun (e : Crash.event) -> e.pid = proc.pid)
                    (Crash.crashing_at config.crash ~round:next)
                with
                | Some { broadcast = Crash.Silent; _ } -> []
                | Some { broadcast = Crash.Broadcast_all; _ } -> others
                | Some { broadcast = Crash.Broadcast_subset; _ } | None ->
                  Rng.subset crash_rng ~p:0.5 others
              else others
            in
            List.iter
              (fun q ->
                let d =
                  Stdlib.max 1
                    (config.delay ~sender:proc.pid ~receiver:q ~round:next rng)
                in
                Calendar.add calendar ~time:(t + d) ~pid:(-1)
                  (Delivery (proc.pid, q, next, snapshot)))
              receivers;
            if crashing_now then begin
              proc.stopped <- true;
              push crashed_at next proc.pid;
              M.incr m_crashes;
              R.emit recorder (fun () -> E.Crash { pid = proc.pid; round = next })
            end
            else
              Calendar.add calendar
                ~time:(t + Stdlib.max 1 (config.pace ~pid:proc.pid ~round:next rng))
                ~pid:proc.pid End_of_round
        end
    in
    let deliver s q k msgs =
      let proc = procs.(q) in
      if not proc.stopped then
        List.iter
          (fun m ->
            if insert proc ~k m then begin
              proc.fresh <- (k, m) :: proc.fresh;
              M.incr m_deliveries;
              (* Arrival round: the first round whose compute sees this
                 message as fresh (the relay carries round-k sets, so [s]
                 may not be the original sender of every copy — it is the
                 flow edge's source). *)
              R.emit recorder (fun () ->
                  E.Deliver
                    {
                      sender = s;
                      receiver = q;
                      round = k;
                      arrival = Stdlib.max k (proc.round + 1);
                    })
            end)
          msgs
    in
    Array.iter (fun proc -> Calendar.add calendar ~time:0 ~pid:proc.pid End_of_round) procs;
    (* One tick per iteration; ticks without events are skipped. [ticks]
       ends one past the tick the run stopped after, or at the horizon. *)
    let rec loop () =
      match Calendar.next_time calendar with
      | Some t when t <= config.horizon_ticks ->
        while Calendar.next_time calendar = Some t do
          match Option.get (Calendar.pop calendar) with
          | _, _, Delivery (s, q, k, msgs) -> deliver s q k msgs
          | _, pid, End_of_round -> if not procs.(pid).stopped then fire procs.(pid) t
        done;
        if
          (config.stop_on_decision && all_correct_decided ())
          || Array.for_all (fun proc -> proc.stopped) procs
        then t + 1
        else loop ()
      | Some _ | None -> config.horizon_ticks + 1
    in
    let t = loop () in
    (* Post-hoc, content-based trace: sender s's round-k message is timely
       to q iff (a copy of) it sat in q's round-k set when q computed
       round k. *)
    let max_round = Array.fold_left (fun acc p -> Stdlib.max acc p.round) 0 procs in
    let round_info k =
      let senders =
        List.filter (fun p -> Hashtbl.mem sent_msgs (p, k)) (List.init n Fun.id)
      in
      let computed =
        List.filter (fun q -> Hashtbl.mem procs.(q).compute_log k) (List.init n Fun.id)
      in
      let timely =
        List.filter_map
          (fun s ->
            match Hashtbl.find_opt sent_msgs (s, k) with
            | None -> None
            | Some m ->
              let receivers =
                List.filter
                  (fun q ->
                    q <> s
                    && List.exists
                         (fun m' -> A.msg_compare m m' = 0)
                         (Option.value ~default:[]
                            (Hashtbl.find_opt procs.(q).compute_log k)))
                  computed
              in
              if receivers = [] then None else Some (s, receivers))
          senders
      in
      {
        Trace.round = k;
        senders;
        crashing = Option.value ~default:[] (Hashtbl.find_opt crashed_at k);
        source = None;
        timely;
        obligated = computed;
        decided = Option.value ~default:[] (Hashtbl.find_opt decided_at k);
        msg_sizes =
          List.filter_map
            (fun s ->
              Option.map (fun m -> (s, A.msg_size m)) (Hashtbl.find_opt sent_msgs (s, k)))
            senders;
      }
    in
    let trace =
      {
        Trace.n;
        inputs;
        crash = config.crash;
        churn = Churn.none ~n;
        env;
        rounds = List.init max_round (fun i -> round_info (i + 1));
      }
    in
    let decided = all_correct_decided () in
    let ticks = Stdlib.min t config.horizon_ticks in
    if obs_on then begin
      M.set_gauge m_ticks (float_of_int ticks);
      (match kernel_before with
      | Some b -> R.record_kernel recorder b
      | None -> ());
      R.emit recorder (fun () -> E.Run_end { rounds = max_round; decided });
      R.flush recorder
    end;
    {
      trace;
      decisions = List.rev !decisions;
      all_correct_decided = decided;
      ticks;
      rounds_completed = Array.map (fun p -> p.round) procs;
    }
end
