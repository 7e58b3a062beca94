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
  module Sh = Giraf.Shell.Make (A)

  (* A weak-set add of [adder]'s round-[round] message, visible to reads
     from step [complete_at] on. Equal messages are one element of the
     set (footnote 2): filing a copy per add merges in the mailbox. *)
  type add = { adder : int; round : int; msg : A.msg; complete_at : int }

  let run config =
    let inputs = Array.of_list config.inputs in
    let n = Array.length inputs in
    let rng = Rng.make config.seed in
    let sh =
      Sh.create ~recorder:Anon_obs.Recorder.off ~inputs ~crash:config.crash
        ~max_rounds:config.horizon_rounds ~seed:config.seed
    in
    (* A process's only event is its next end-of-round: at step 0, then
       when its own add completes. Events at one step run in pid order. *)
    let calendar = Giraf.Calendar.create () in
    let adds = ref [] in
    (* Every add that completed by a process's last read is filed in its
       mailbox: adds complete at step 1 or later. *)
    let last_read = Array.make n 0 in
    (* One end-of-round of [p] at step [t]: compute the previous round
       (or initialize), then begin adding the next round's pair. A
       crasher's last add has no receivers to choose among, so only a
       [Silent] crash withholds it. *)
    let end_of_round p t =
      match Sh.end_of_round sh p with
      | Giraf.Shell.Capped | Giraf.Shell.Decided | Giraf.Shell.Sent Giraf.Crash.Silent -> ()
      | Giraf.Shell.Sent (Giraf.Crash.Broadcast_all | Giraf.Crash.Broadcast_subset) ->
        let round = Sh.round sh p in
        let lat = Stdlib.max 1 (config.latency ~pid:p ~round rng) in
        adds := { adder = p; round; msg = Sh.message sh p; complete_at = t + lat } :: !adds;
        Giraf.Calendar.add calendar ~time:(t + lat) ~pid:p ()
    in
    (* [p]'s own add completed at step [t]: read the set, receive every
       other process's add completed since the last read, then trigger
       the next end-of-round (Alg. 5 lines 5-9). *)
    let add_completed p t =
      List.iter
        (fun a ->
          if a.adder <> p && a.complete_at > last_read.(p) && a.complete_at <= t then
            Sh.file sh ~sender:a.adder ~receiver:p ~sent:a.round [ a.msg ])
        !adds;
      last_read.(p) <- t;
      end_of_round p t
    in
    (* Step [t] has run. [steps] ends one past the step the run stopped
       after: on a decision, or once no add is pending. Every process
       stops after [horizon_rounds] end-of-rounds, so the calendar
       drains. *)
    let rec loop t =
      if Sh.all_correct_decided sh then t + 1
      else
        match Giraf.Calendar.next_time calendar with
        | None -> t + 1
        | Some t ->
          while Giraf.Calendar.next_time calendar = Some t do
            let _, p, () = Option.get (Giraf.Calendar.pop calendar) in
            if not (Sh.stopped sh p) then add_completed p t
          done;
          loop t
    in
    for p = 0 to n - 1 do
      end_of_round p 0
    done;
    let steps = loop 0 in
    {
      trace = Lazy.force (Sh.finish sh ~env:Giraf.Env.Ms);
      decisions = Sh.decisions sh;
      all_correct_decided = Sh.all_correct_decided sh;
      steps;
      rounds_completed = Array.init n (Sh.round sh);
    }
end
