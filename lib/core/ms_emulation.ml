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
  max_steps : int;
  seed : int;
  latency : latency_fn;
  stop_on_decision : bool;
}

let default_config ?(horizon_rounds = 100) ?(max_steps = 100_000) ?(seed = 42)
    ?(latency = fun ~pid ~round rng -> uniform_latency ~max:3 ~pid ~round rng)
    ?(stop_on_decision = true) ~inputs ~crash () =
  let where = "Ms_emulation.default_config" in
  Giraf.Churn.validate ~where ~n:(List.length inputs) ~crash ();
  if horizon_rounds < 1 then
    Giraf.Config_error.fail ~where
      (Printf.sprintf "horizon_rounds must be >= 1 (got %d)" horizon_rounds);
  if max_steps < 1 then
    Giraf.Config_error.fail ~where
      (Printf.sprintf "max_steps must be >= 1 (got %d)" max_steps);
  { inputs; crash; horizon_rounds; max_steps; seed; latency; stop_on_decision }

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
    mutable delivery_log : (Elt.t * int) list;
        (* (element, round the process was in when it got the element);
           timeliness is derived post-hoc because identical messages from
           several senders merge into one element whose owner set is only
           complete at the end of the run. *)
  }

  (* Per-element add bookkeeping, for visibility and per-owner completion. *)
  type add_op = { owner : int; elt : Elt.t; started : int; complete_at : int }

  let run config =
    let inputs = Array.of_list config.inputs in
    let n = Array.length inputs in
    let rng = Rng.make config.seed in
    let correct = Giraf.Crash.correct config.crash in
    let procs =
      Array.init n (fun pid ->
          {
            pid;
            st = None;
            round = 0;
            delivered = [];
            delivery_log = [];
          })
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
    (* Per emulated round bookkeeping for the trace. *)
    let senders : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    let computed : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    let decided_at : (int, (int * Value.t) list) Hashtbl.t = Hashtbl.create 64 in
    let crashed_at : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    let msg_sizes : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
    let push tbl k x =
      Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
    in
    let owners_of elt =
      List.filter_map
        (fun op -> if Elt.compare op.elt elt = 0 then Some op.owner else None)
        !ops
      |> List.sort_uniq Int.compare
    in
    let all_correct_decided () =
      List.for_all (fun p -> halted.(p)) correct
    in
    (* One end-of-round for process p at time t: compute the previous round
       (or initialize), then begin adding the next round's pair. *)
    let end_of_round proc t =
      let next = proc.round + 1 in
      match Giraf.Crash.crash_round config.crash proc.pid with
      | Some r when r <= next -> push crashed_at next proc.pid
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
              push computed (next - 1) proc.pid;
              match dec with
              | Some v ->
                decisions := (proc.pid, next - 1, v) :: !decisions;
                push decided_at (next - 1) (proc.pid, v);
                halted.(proc.pid) <- true;
                None
              | None -> Some m
            end
          in
          match outcome with
          | None -> ()
          | Some m ->
            proc.round <- next;
            push senders next proc.pid;
            push msg_sizes next (proc.pid, A.msg_size m);
            let lat = config.latency ~pid:proc.pid ~round:next rng in
            let lat = Stdlib.max 1 lat in
            ops := { owner = proc.pid; elt = (next, m); started = t; complete_at = t + lat }
                   :: !ops;
            (* Own message is delivered to itself immediately (Alg. 1
               line 10 keeps the process's own message in its mailbox). *)
            Giraf.Backend.insert mailboxes proc.pid ~arrival:next ~sent:next m;
            proc.delivered <- (next, m) :: proc.delivered;
            proc.delivery_log <- ((next, m), next) :: proc.delivery_log;
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
          proc.delivery_log <- (elt, proc.round) :: proc.delivery_log;
          (* Receive ⟨m, k⟩: lands in M[k]; it is timely for round k iff
             the process is still in a round <= k, i.e. will consume it at
             its compute(k). *)
          let arrival = Stdlib.max proc.round k in
          Giraf.Backend.insert mailboxes proc.pid ~arrival ~sent:k m)
        fresh;
      end_of_round proc t
    in
    (* Step [t] has run. [steps] ends one past the step the run stopped
       after: on a decision, once no add is pending, or at [max_steps]. *)
    let rec loop t =
      if config.stop_on_decision && all_correct_decided () then t + 1
      else
        match Giraf.Calendar.next_time calendar with
        | None -> t + 1
        | Some t when t > config.max_steps -> config.max_steps + 1
        | Some t ->
          while Giraf.Calendar.next_time calendar = Some t do
            let _, pid, () = Option.get (Giraf.Calendar.pop calendar) in
            add_completed procs.(pid) t
          done;
          loop t
    in
    Array.iter (fun proc -> end_of_round proc 0) procs;
    let steps = loop 0 in
    (* Assemble the emulated-round trace. *)
    let max_round =
      Array.fold_left (fun acc proc -> Stdlib.max acc proc.round) 0 procs
    in
    (* Timeliness is derived post-hoc: process q received sender s's
       round-k message timely iff q got an element ⟨m, k⟩ while still in a
       round <= k and s is one of its (merged, anonymous) owners. *)
    let timely_pairs_of k =
      Array.to_list procs
      |> List.concat_map (fun proc ->
             List.concat_map
               (fun (((k', _) as elt), j) ->
                 if k' = k && j <= k then
                   List.filter_map
                     (fun owner ->
                       if owner <> proc.pid then Some (owner, proc.pid) else None)
                     (owners_of elt)
                 else [])
               proc.delivery_log)
      |> List.sort_uniq compare
    in
    let round_info k =
      let timely_pairs = timely_pairs_of k in
      let timely_by_sender =
        List.sort_uniq Int.compare (List.map fst timely_pairs)
        |> List.map (fun s ->
               (s, List.filter_map (fun (s', q) -> if s' = s then Some q else None) timely_pairs))
      in
      let computed_k = Option.value ~default:[] (Hashtbl.find_opt computed k) in
      {
        Giraf.Trace.round = k;
        senders = List.sort Int.compare (Option.value ~default:[] (Hashtbl.find_opt senders k));
        crashing = Option.value ~default:[] (Hashtbl.find_opt crashed_at k);
        source = None;
        timely = timely_by_sender;
        (* Every process that computed round k was owed the source's
           round-k pair (same strengthening as in Runner). *)
        obligated = List.sort Int.compare computed_k;
        decided = Option.value ~default:[] (Hashtbl.find_opt decided_at k);
        msg_sizes = Option.value ~default:[] (Hashtbl.find_opt msg_sizes k);
      }
    in
    let rounds = List.init max_round (fun i -> round_info (i + 1)) in
    let trace =
      {
        Giraf.Trace.n;
        inputs;
        crash = config.crash;
        churn = Giraf.Churn.none ~n;
        env = Giraf.Env.Ms;
        rounds;
      }
    in
    {
      trace;
      decisions = List.rev !decisions;
      all_correct_decided = all_correct_decided ();
      steps;
      rounds_completed = Array.map (fun proc -> proc.round) procs;
    }
end
