open Anon_kernel

type policy = Round_robin | Random_steps | Bursty of int

type config = {
  n : int;
  policy : policy;
  seed : int;
  max_steps : int;
  crash_at : (int * int) list;
}

let default_config ?(policy = Random_steps) ?(seed = 42) ?(max_steps = 100_000)
    ?(crash_at = []) ~n () =
  { n; policy; seed; max_steps; crash_at }

type 'r completion = {
  pid : int;
  op_index : int;
  result : 'r;
  invoked : int;
  completed : int;
}

type 'r outcome = {
  completions : 'r completion list;
  steps : int;
  pending : int list;
}

type ('v, 'r) client_state =
  | Idle of int  (* next op index *)
  | Running of { op_index : int; invoked : int; prog : ('v, 'r) Program.t }
  | Finished
  | Crashed

let run ~config ~registers ?(oracle = fun ~pid:_ ~step:_ -> 0) ~clients () =
  let n = config.n in
  let rng = Rng.make config.seed in
  let states = Array.make n (Idle 0) in
  let completions = ref [] in
  let step = ref 0 in
  let crashed_now pid =
    List.exists (fun (p, s) -> p = pid && !step >= s) config.crash_at
  in
  let progress pid prog =
    match prog with
    | Program.Read (r, k) -> `Continue (k registers.(r))
    | Program.Write (r, v, k) ->
      registers.(r) <- v;
      `Continue (k ())
    | Program.Query k -> `Continue (k (oracle ~pid ~step:!step))
    | Program.Done r -> `Done r
  in
  (* One atomic step of client [pid]. *)
  let interrupted = ref [] in
  let step_client pid =
    if crashed_now pid then begin
      (match states.(pid) with
      | Running _ -> interrupted := pid :: !interrupted
      | Idle _ | Finished | Crashed -> ());
      states.(pid) <- Crashed
    end
    else
      match states.(pid) with
      | Finished | Crashed -> ()
      | Idle op_index -> (
        match clients ~pid ~op_index with
        | None -> states.(pid) <- Finished
        | Some prog -> states.(pid) <- Running { op_index; invoked = !step; prog })
      | Running { op_index; invoked; prog } -> (
        match progress pid prog with
        | `Continue prog' -> states.(pid) <- Running { op_index; invoked; prog = prog' }
        | `Done result ->
          completions :=
            { pid; op_index; result; invoked; completed = !step } :: !completions;
          states.(pid) <- Idle (op_index + 1))
  in
  let runnable () =
    List.filter
      (fun pid -> match states.(pid) with Finished | Crashed -> false | Idle _ | Running _ -> true)
      (List.init n Fun.id)
  in
  let burst_pid = ref 0 in
  let burst_left = ref 0 in
  let pick () =
    match runnable () with
    | [] -> None
    | pids -> (
      match config.policy with
      | Round_robin -> Some (List.nth pids (!step mod List.length pids))
      | Random_steps -> Some (Rng.pick rng pids)
      | Bursty burst ->
        if !burst_left > 0 && List.mem !burst_pid pids then begin
          decr burst_left;
          Some !burst_pid
        end
        else begin
          burst_pid := Rng.pick rng pids;
          burst_left := Stdlib.max 0 (Rng.int rng (Stdlib.max 1 burst));
          Some !burst_pid
        end)
  in
  let continue = ref true in
  while !continue && !step < config.max_steps do
    (match pick () with
    | None -> continue := false
    | Some pid -> step_client pid);
    incr step
  done;
  let pending =
    List.filter
      (fun pid ->
        List.mem pid !interrupted
        || match states.(pid) with
           | Running _ -> true
           | Idle _ | Finished | Crashed -> false)
      (List.init n Fun.id)
  in
  { completions = List.rev !completions; steps = !step; pending }
