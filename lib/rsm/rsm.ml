open Anon_kernel
module G = Anon_giraf

type config = {
  n : int;
  window : int;
  batch : int;
  horizon : int;
  seed : int;
  crash : G.Crash.t;
  churn : G.Churn.t;
  adversary : int -> G.Adversary.t;
}

let validate ?(where = "Rsm.validate") config =
  let fail what = G.Config_error.fail ~where what in
  G.Churn.validate ~where ~n:config.n ~crash:config.crash ~churn:config.churn ();
  G.Env.validate ~where (G.Adversary.env (config.adversary 0));
  if config.window < 1 then
    fail (Printf.sprintf "window must be >= 1 (got %d)" config.window);
  if config.batch < 1 then
    fail (Printf.sprintf "batch must be >= 1 (got %d)" config.batch);
  if config.batch > config.window then
    fail
      (Printf.sprintf "batch must be <= window (got batch %d, window %d)"
         config.batch config.window);
  if config.horizon < 1 then
    fail (Printf.sprintf "horizon must be >= 1 (got %d)" config.horizon)

let instance_seed ~seed ~instance = seed + (1_000_003 * instance)

(* Process [i] of an instance proposes batch value [i mod b]. *)
let instance_inputs ~n batch_values =
  let b = List.length batch_values in
  Array.init n (fun i -> List.nth batch_values (i mod b))

type instance_result = {
  instance : int;
  first_proposal : int;
  batch_values : Value.t list;
  arrivals : int list;
  opened : int;
  decided : int option;
  value : Value.t option;
  decisions : (int * int * Value.t) list;
  local_rounds : int;
}

type outcome = {
  instances : instance_result list;
  commit : int;
  committed_proposals : int;
  decided_proposals : int;
  stalled : int;
  rounds : int;
  broadcasts : int;
  instance_msgs : int;
  agreement_ok : bool;
  validity_ok : bool;
}

let latencies outcome =
  List.concat_map
    (fun ir ->
      match ir.decided with
      | None -> []
      | Some d -> List.map (fun a -> float_of_int (d - a + 1)) ir.arrivals)
    outcome.instances

(* Schedules are declared in global rounds; an instance opened at global
   round [g0] lives in a local frame where [local = global - g0 + 1]. A
   crash that already happened is a silent crash at local round 1; an
   absence that already ended is no event at all. *)

let translate_crash ~g0 ~n crash =
  G.Crash.events crash
  |> List.map (fun (ev : G.Crash.event) ->
         let local = ev.round - g0 + 1 in
         if local >= 1 then { ev with round = local }
         else { ev with round = 1; broadcast = G.Crash.Silent })
  |> G.Crash.of_events ~n

let translate_churn ~g0 ~n churn =
  G.Churn.events churn
  |> List.filter_map (fun (ev : G.Churn.event) ->
         let leave = ev.leave - g0 + 1 in
         let rejoin = Option.map (fun r -> r - g0 + 1) ev.rejoin in
         match rejoin with
         | Some r when r <= 1 -> None
         | _ -> Some { ev with leave = Int.max 1 leave; rejoin })
  |> G.Churn.of_events ~n

module Make (A : G.Intf.ALGORITHM) = struct
  module Core = G.Step_core.Consensus (A)

  type live = {
    id : int;
    core : Core.t;
    adversary : G.Adversary.t;
    rng : Rng.t;
    crash_rng : Rng.t;
    opened : int;
    opened_ns : int64;
    first_proposal : int;
    batch_values : Value.t list;
    arrivals : int list;
    decisions : (int * int * Value.t) list ref;  (* reversed *)
    on_decide : (pid:int -> round:int -> value:Value.t -> unit) option;
    mutable local_rounds : int;
  }

  let run ?(recorder = Anon_obs.Recorder.off) ?on_commit config ~proposals =
    let module R = Anon_obs.Recorder in
    let module M = Anon_obs.Metrics in
    let module E = Anon_obs.Event in
    validate ~where:"Rsm.run" config;
    let obs_on = R.active recorder in
    let m_proposals = R.counter recorder "rsm.proposals" in
    let m_instances = R.counter recorder "rsm.instances" in
    let m_decisions = R.counter recorder Anon_obs.Name.decisions in
    let m_commits = R.counter recorder "rsm.commits" in
    let m_stalled = R.counter recorder "rsm.stalled" in
    let m_broadcasts = R.counter recorder Anon_obs.Name.broadcasts in
    let m_instance_msgs = R.counter recorder "rsm.instance_msgs" in
    let g_rounds = R.gauge recorder Anon_obs.Name.rounds in
    let h_latency_rounds = R.histogram recorder "rsm.decide_latency_rounds" in
    let h_latency_us = R.histogram recorder "rsm.decide_latency_us" in
    let h_inflight = R.histogram recorder "rsm.inflight" in
    let h_queue = R.histogram recorder "rsm.queue_depth" in
    let h_batch_fill = R.histogram recorder "rsm.batch_fill" in
    let h_bundle = R.histogram recorder "rsm.bundle_size" in
    let queue = Array.of_list proposals in
    let nq = Array.length queue in
    let next = ref 0 in  (* next unopened proposal *)
    let arrived = ref 0 in  (* proposals with arrival <= current round *)
    let next_instance = ref 0 in
    let inflight : live list ref = ref [] in  (* ascending id *)
    let in_flight = ref 0 in  (* List.length !inflight *)
    let closed = ref (Array.make 16 None) in  (* by instance id, grown by doubling *)
    let commit = ref 0 in
    let committed_proposals = ref 0 in
    let decided_proposals = ref 0 in
    let stalled = ref 0 in
    let broadcasts = ref 0 in
    let instance_msgs = ref 0 in
    let bundle = Array.make config.n 0 in  (* this round's bundle size per sender *)
    (* A schedule without events reads the same in every local frame, so
       every instance shares it instead of translating it. *)
    let crash_from g0 =
      match G.Crash.events config.crash with
      | [] -> config.crash
      | _ :: _ -> translate_crash ~g0 ~n:config.n config.crash
    in
    let churn_from g0 =
      match G.Churn.events config.churn with
      | [] -> config.churn
      | _ :: _ -> translate_churn ~g0 ~n:config.n config.churn
    in
    let open_instance gr =
      let id = !next_instance in
      incr next_instance;
      let first = !next in
      let covered = ref [] in
      let count = ref 0 in
      while
        !count < config.batch && !next < nq && queue.(!next).Workload.arrival <= gr
      do
        covered := queue.(!next) :: !covered;
        incr next;
        incr count
      done;
      let covered = List.rev !covered in
      let batch_values = List.map (fun p -> p.Workload.value) covered in
      let arrivals = List.map (fun p -> p.Workload.arrival) covered in
      let b = !count in
      let inputs = instance_inputs ~n:config.n batch_values in
      let crash = crash_from gr in
      let churn = churn_from gr in
      let adversary = config.adversary id in
      let rng = Rng.make (instance_seed ~seed:config.seed ~instance:id) in
      let crash_rng = Rng.split rng in
      let core =
        Core.create ~inputs ~crash ~churn ~env:(G.Adversary.env adversary)
      in
      M.incr ~by:b m_proposals;
      M.incr m_instances;
      if obs_on then M.observe h_batch_fill (float_of_int b);
      let decisions = ref [] in
      let on_decide ~pid ~round ~value =
        decisions := (pid, round, value) :: !decisions;
        M.incr m_decisions
      in
      incr in_flight;
      {
        id;
        core;
        adversary;
        rng;
        crash_rng;
        opened = gr;
        opened_ns = (if obs_on then Anon_obs.Clock.now_ns () else 0L);
        first_proposal = first;
        batch_values;
        arrivals;
        decisions;
        on_decide = Some on_decide;
        local_rounds = 0;
      }
    in
    (* The instances round [gr] opens, ascending id. *)
    let rec open_all gr =
      if !in_flight < config.window && !next < nq && queue.(!next).Workload.arrival <= gr then
        let inst = open_instance gr in
        inst :: open_all gr
      else []
    in
    (* One local round of one instance — the exact Runner.run round body:
       begin_round, compute, plan from the instance's own adversary and
       RNG stream, deliver. *)
    let step inst =
      inst.local_rounds <- inst.local_rounds + 1;
      Core.begin_round inst.core;
      let outgoing = Core.compute inst.core ?on_decide:inst.on_decide in
      let ctx = Core.ctx inst.core in
      let plan = G.Adversary.plan inst.adversary ctx inst.rng in
      let (_ : G.Dispatch.stats) =
        Core.deliver inst.core ~plan ~crash_rng:inst.crash_rng
      in
      outgoing
    in
    let close ~gr ~done_ inst =
      let value, decided =
        match !(inst.decisions) with
        | (_, _, v) :: _ when done_ -> (Some v, Some gr)
        | _ -> (None, None)
      in
      (match value with
      | Some _ ->
        decided_proposals := !decided_proposals + List.length inst.arrivals;
        if obs_on then begin
          List.iter
            (fun a -> M.observe h_latency_rounds (float_of_int (gr - a + 1)))
            inst.arrivals;
          M.observe h_latency_us
            (Anon_obs.Clock.ns_to_us (Anon_obs.Clock.since_ns inst.opened_ns))
        end
      | None ->
        incr stalled;
        M.incr m_stalled);
      let a = !closed in
      if inst.id >= Array.length a then begin
        closed := Array.make (Int.max (inst.id + 1) (2 * Array.length a)) None;
        Array.blit a 0 !closed 0 (Array.length a)
      end;
      !closed.(inst.id) <-
        Some
          {
            instance = inst.id;
            first_proposal = inst.first_proposal;
            batch_values = inst.batch_values;
            arrivals = inst.arrivals;
            opened = inst.opened;
            decided;
            value;
            decisions = List.rev !(inst.decisions);
            local_rounds = inst.local_rounds;
          }
    in
    let advance_commit gr =
      let continue = ref true in
      while !continue do
        match if !commit < Array.length !closed then !closed.(!commit) else None with
        | Some { value = Some v; arrivals; _ } ->
          let instance = !commit in
          incr commit;
          committed_proposals := !committed_proposals + List.length arrivals;
          M.incr m_commits;
          (match on_commit with
          | Some f -> f ~instance ~round:gr ~value:v
          | None -> ());
          R.emit recorder (fun () -> E.Commit { instance; round = gr; value = v })
        | Some { value = None; _ } | None -> continue := false
      done
    in
    (* A sender's messages of one global round travel as one bundle: its
       message of each instance, each framed by a one-unit instance tag. *)
    let rec bundle_up = function
      | [] -> ()
      | { G.Dispatch.sender; msg } :: tl ->
        incr instance_msgs;
        if bundle.(sender) = 0 then incr broadcasts;
        bundle.(sender) <- bundle.(sender) + 1 + if obs_on then A.msg_size msg else 0;
        bundle_up tl
    in
    let rec step_all = function
      | [] -> ()
      | inst :: tl ->
        bundle_up (step inst);
        step_all tl
    in
    (* The instances still in flight, once every one whose correct
       stayers all decided is closed (in id order); the list is rebuilt
       only when one closes. *)
    let rec sweep gr = function
      | [] -> []
      | inst :: tl as insts ->
        if Core.all_decided inst.core then begin
          close ~gr ~done_:true inst;
          decr in_flight;
          sweep gr tl
        end
        else
          let tl' = sweep gr tl in
          if tl' == tl then insts else inst :: tl'
    in
    let g = ref 0 in
    let finished = nq = 0 in
    let finished = ref finished in
    while (not !finished) && !g < config.horizon do
      incr g;
      let gr = !g in
      while !arrived < nq && queue.(!arrived).Workload.arrival <= gr do
        incr arrived
      done;
      (match open_all gr with [] -> () | opened -> inflight := !inflight @ opened);
      if obs_on then begin
        M.observe h_inflight (float_of_int !in_flight);
        M.observe h_queue (float_of_int (!arrived - !next))
      end;
      step_all !inflight;
      for p = 0 to config.n - 1 do
        let size = bundle.(p) in
        if size > 0 then begin
          if obs_on then M.observe h_bundle (float_of_int size);
          bundle.(p) <- 0
        end
      done;
      inflight := sweep gr !inflight;
      advance_commit gr;
      match !inflight with [] when !next >= nq -> finished := true | _ -> ()
    done;
    let rounds = !g in
    (* Instances still open at the horizon never became committable. *)
    List.iter (fun inst -> close ~gr:rounds ~done_:false inst) !inflight;
    inflight := [];
    let instances = List.init !next_instance (fun i -> Option.get !closed.(i)) in
    (* Every decider of an instance is a replica of the log, so no
       churner is exempt from agreement. Its processes proposed the
       first [n] batch values ([instance_inputs]). *)
    let violations =
      List.concat_map
        (fun (ir : instance_result) ->
          G.Checker.check_decisions
            ~inputs:(List.filteri (fun i _ -> i < config.n) ir.batch_values)
            ir.decisions)
        instances
    in
    let none_of kind = not (List.exists kind violations) in
    let agreement_ok =
      none_of (function G.Checker.Agreement_violation _ -> true | _ -> false)
    in
    let validity_ok =
      none_of (function G.Checker.Validity_violation _ -> true | _ -> false)
    in
    if obs_on then begin
      M.incr ~by:!broadcasts m_broadcasts;
      M.incr ~by:!instance_msgs m_instance_msgs;
      M.set_gauge g_rounds (float_of_int rounds);
      R.flush recorder
    end;
    {
      instances;
      commit = !commit;
      committed_proposals = !committed_proposals;
      decided_proposals = !decided_proposals;
      stalled = !stalled;
      rounds;
      broadcasts = !broadcasts;
      instance_msgs = !instance_msgs;
      agreement_ok;
      validity_ok;
    }
end
