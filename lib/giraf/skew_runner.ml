open Anon_kernel

type pace_fn = pid:int -> round:int -> Rng.t -> int
type delay_fn = sender:int -> receiver:int -> round:int -> Rng.t -> int

let positive ~where what ticks =
  if ticks < 1 then
    Config_error.fail ~where (Printf.sprintf "%s must be >= 1 (got %d)" what ticks)

let uniform_pace ~max =
  positive ~where:"Skew_runner.uniform_pace" "max" max;
  fun ~pid:_ ~round:_ rng -> Rng.int_in rng 1 max

let fixed_pace p =
  positive ~where:"Skew_runner.fixed_pace" "pace" p;
  fun ~pid:_ ~round:_ _rng -> p

let uniform_delay ~max =
  positive ~where:"Skew_runner.uniform_delay" "max" max;
  fun ~sender:_ ~receiver:_ ~round:_ rng -> Rng.int_in rng 1 max

let fixed_delay d =
  positive ~where:"Skew_runner.fixed_delay" "delay" d;
  fun ~sender:_ ~receiver:_ ~round:_ _rng -> d

type config = {
  inputs : Value.t list;
  crash : Crash.t;
  horizon_ticks : int;
  max_rounds : int;
  seed : int;
  pace : pace_fn;
  delay : delay_fn;
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
    ?(pace = fixed_pace 1) ?(delay = fixed_delay 1) ~inputs ~crash () =
  let config = { inputs; crash; horizon_ticks; max_rounds; seed; pace; delay } in
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
  module Sh = Shell.Make (A)

  (* A relayed round set reaching a receiver, or a process's next
     end-of-round. *)
  type event = Delivery of int * int * int * A.msg list | End_of_round

  (* The messages of ascending [msgs] not in ascending [held]: a receiver
     merges a relayed set into its own round set. *)
  let rec unheld held msgs =
    match (held, msgs) with
    | h :: hs, m :: ms ->
      let c = A.msg_compare h m in
      if c < 0 then unheld hs msgs else if c = 0 then unheld hs ms else m :: unheld held ms
    | [], _ | _, [] -> msgs

  let run ?(recorder = Anon_obs.Recorder.off) config =
    validate ~where:"Skew_runner.run" config;
    let inputs = Array.of_list config.inputs in
    let n = Array.length inputs in
    let sh =
      Sh.create ~recorder ~inputs ~crash:config.crash ~max_rounds:config.max_rounds
        ~seed:config.seed
    in
    let rng = Rng.make config.seed in
    let crash_rng = Rng.split rng in
    (* A tick's deliveries run in the order they were scheduled, filed
       under pid -1 ahead of its end-of-rounds, which run in pid order. *)
    let calendar = Calendar.create () in
    (* One end-of-round of [p] at tick [t]; a broadcast carries the whole
       round set, the relay that lets a receiver obtain a message through
       a third party (Alg. 1 line 12). *)
    let fire p t =
      match Sh.end_of_round sh p with
      | Shell.Capped | Shell.Decided -> ()
      | Shell.Sent kind ->
        let k = Sh.round sh p in
        let held = Sh.held sh p ~round:k in
        let others =
          List.filter (fun q -> q <> p && not (Sh.stopped sh q)) (List.init n Fun.id)
        in
        List.iter
          (fun q ->
            let d = Stdlib.max 1 (config.delay ~sender:p ~receiver:q ~round:k rng) in
            Calendar.add calendar ~time:(t + d) ~pid:(-1) (Delivery (p, q, k, held)))
          (Crash.reach kind crash_rng others);
        if not (Sh.stopped sh p) then
          Calendar.add calendar
            ~time:(t + Stdlib.max 1 (config.pace ~pid:p ~round:k rng))
            ~pid:p End_of_round
    in
    for p = 0 to n - 1 do
      Calendar.add calendar ~time:0 ~pid:p End_of_round
    done;
    (* One tick per iteration; ticks without events are skipped. [ticks]
       ends one past the tick the run stopped after, or at the horizon. *)
    let rec loop () =
      match Calendar.next_time calendar with
      | Some t when t <= config.horizon_ticks ->
        while Calendar.next_time calendar = Some t do
          match Option.get (Calendar.pop calendar) with
          | _, _, Delivery (s, q, k, msgs) ->
            Sh.file sh ~sender:s ~receiver:q ~sent:k (unheld (Sh.held sh q ~round:k) msgs)
          | _, p, End_of_round -> if not (Sh.stopped sh p) then fire p t
        done;
        if Sh.all_correct_decided sh || Sh.running sh = 0 then t + 1 else loop ()
      | Some _ | None -> config.horizon_ticks + 1
    in
    let ticks = Stdlib.min (loop ()) config.horizon_ticks in
    {
      trace = Lazy.force (Sh.finish sh ~env:Env.Async);
      decisions = Sh.decisions sh;
      all_correct_decided = Sh.all_correct_decided sh;
      ticks;
      rounds_completed = Array.init n (Sh.round sh);
    }
end
