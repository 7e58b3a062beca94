open Anon_kernel
module Giraf = Anon_giraf

type latency_fn = pid:int -> round:int -> Rng.t -> int

let uniform_latency ~max ~pid:_ ~round:_ rng = Rng.int_in rng 1 (Stdlib.max 1 max)
let fixed_latency l ~pid:_ ~round:_ _rng = Stdlib.max 1 l

let alternating_latency ~fast ~slow ~pid ~round _rng =
  if (pid + round) mod 2 = 1 then Stdlib.max 1 fast else Stdlib.max 1 slow

type config = {
  inputs : Value.t list;
  crash : Giraf.Crash.t;
  horizon_rounds : int;
  seed : int;
  latency : latency_fn;
}

let default_config ?(horizon_rounds = 100) ?(seed = 42)
    ?(latency = fun ~pid ~round rng -> uniform_latency ~max:3 ~pid ~round rng)
    ~inputs ~crash () =
  let where = "Ms_emulation.default_config" in
  Giraf.Churn.validate ~where ~n:(List.length inputs) ~crash ();
  if horizon_rounds < 1 then
    Giraf.Config_error.fail ~where
      (Printf.sprintf "horizon_rounds must be >= 1 (got %d)" horizon_rounds);
  { inputs; crash; horizon_rounds; seed; latency }

type outcome = {
  trace : Giraf.Trace.t;
  decisions : (int * int * Value.t) list;
  all_correct_decided : bool;
  steps : int;
  rounds_completed : int array;
}

module Make (A : Giraf.Intf.ALGORITHM) = struct
  (* Shared weak-set elements are ⟨message, round⟩ pairs — identical
     messages from different processes merge, exactly as anonymity
     dictates (footnote 2 of the paper: receiving an identical message
     from another process is as good). *)
  module Elt = struct
    type t = int * A.msg (* round, message *)

    let compare (k1, m1) (k2, m2) =
      let c = Int.compare k1 k2 in
      if c <> 0 then c else A.msg_compare m1 m2
  end

  type proc = {
    pid : int;
    mutable st : A.state option;
    mutable round : int;  (* end-of-rounds performed *)
    mutable delivered : Elt.t list;
  }

  (* An add of [elt], visible to reads from step [complete_at] on. *)
  type add_op = { elt : Elt.t; complete_at : int }

  let run config =
    let inputs = Array.of_list config.inputs in
    let n = Array.length inputs in
    let rng = Rng.make config.seed in
    let correct = Giraf.Crash.correct config.crash in
    let procs =
      Array.init n (fun pid -> { pid; st = None; round = 0; delivered = [] })
    in
    let mailboxes = Giraf.Backend.create ~n in
    (* A process's only event is its next end-of-round: at step 0, then
       when its own add completes. Events at one step run in pid order. *)
    let calendar = Giraf.Calendar.create () in
    let ops : add_op list ref = ref [] in
    (* An element is visible once the earliest add of it completed. *)
    let visible_elements now =
      List.filter_map (fun op -> if op.complete_at <= now then Some op.elt else None) !ops
      |> List.sort_uniq Elt.compare
    in
    let decisions = ref [] in
    let halted = Array.make n false in
    let log = Giraf.Trace.Log.create () in
    let all_correct_decided () =
      List.for_all (fun p -> halted.(p)) correct
    in
    (* One end-of-round for process p at time t: compute the previous round
       (or initialize), then begin adding the next round's pair. *)
    let end_of_round proc t =
      let next = proc.round + 1 in
      match Giraf.Crash.event config.crash proc.pid with
      | Some ev when ev.round <= next -> Giraf.Trace.Log.crash log ~pid:proc.pid ~round:next
      | Some _ | None ->
        if next <= config.horizon_rounds then begin
          let outcome =
            if next = 1 then begin
              let st, m = A.initialize inputs.(proc.pid) in
              proc.st <- Some st;
              Some m
            end
            else begin
              let current, fresh =
                Giraf.Backend.take ~compare:A.msg_compare mailboxes proc.pid ~round:(next - 1)
              in
              let st = match proc.st with Some st -> st | None -> assert false in
              let st', m, dec =
                A.compute st ~round:(next - 1) ~inbox:{ Giraf.Intf.current; fresh }
              in
              proc.st <- Some st';
              Giraf.Trace.Log.read log ~pid:proc.pid ~round:(next - 1) current;
              match dec with
              | Some v ->
                decisions := (proc.pid, next - 1, v) :: !decisions;
                Giraf.Trace.Log.decide log ~pid:proc.pid ~round:(next - 1) v;
                halted.(proc.pid) <- true;
                None
              | None -> Some m
            end
          in
          match outcome with
          | None -> ()
          | Some m ->
            proc.round <- next;
            Giraf.Trace.Log.broadcast log ~pid:proc.pid ~round:next ~size:(A.msg_size m) m;
            let lat = config.latency ~pid:proc.pid ~round:next rng in
            let lat = Stdlib.max 1 lat in
            ops := { elt = (next, m); complete_at = t + lat } :: !ops;
            (* Own message is delivered to itself immediately (Alg. 1
               line 10 keeps the process's own message in its mailbox). *)
            Giraf.Backend.insert mailboxes proc.pid ~arrival:next ~sent:next m;
            proc.delivered <- (next, m) :: proc.delivered;
            Giraf.Calendar.add calendar ~time:(t + lat) ~pid:proc.pid ()
        end
    in
    (* Our own add completed at step [t]: read the set, deliver
       everything new, then trigger the next end-of-round (Alg. 5 lines
       5–9). *)
    let add_completed proc t =
      let fresh =
        List.filter
          (fun elt -> not (List.exists (fun d -> Elt.compare d elt = 0) proc.delivered))
          (visible_elements t)
      in
      List.iter
        (fun ((k, m) as elt) ->
          proc.delivered <- elt :: proc.delivered;
          (* Receive ⟨m, k⟩: lands in M[k]; it is timely for round k iff
             the process is still in a round <= k, i.e. will consume it at
             its compute(k). *)
          let arrival = Stdlib.max proc.round k in
          Giraf.Backend.insert mailboxes proc.pid ~arrival ~sent:k m)
        fresh;
      end_of_round proc t
    in
    (* Step [t] has run. [steps] ends one past the step the run stopped
       after: on a decision, or once no add is pending. Every process
       stops after [horizon_rounds] end-of-rounds, so the calendar
       drains. *)
    let rec loop t =
      if all_correct_decided () then t + 1
      else
        match Giraf.Calendar.next_time calendar with
        | None -> t + 1
        | Some t ->
          while Giraf.Calendar.next_time calendar = Some t do
            let _, pid, () = Option.get (Giraf.Calendar.pop calendar) in
            add_completed procs.(pid) t
          done;
          loop t
    in
    Array.iter (fun proc -> end_of_round proc 0) procs;
    let steps = loop 0 in
    {
      trace =
        Giraf.Trace.of_log ~msg_compare:A.msg_compare ~inputs ~crash:config.crash
          ~env:Giraf.Env.Ms log;
      decisions = List.rev !decisions;
      all_correct_decided = all_correct_decided ();
      steps;
      rounds_completed = Array.map (fun proc -> proc.round) procs;
    }
end
