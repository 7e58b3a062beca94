open Anon_kernel

type ('msg, 'out) effect_ =
  | Send of { dst : int; msg : 'msg }
  | Broadcast of 'msg
  | Timer of { tag : int; delay : int }
  | Emit of 'out

module type PROTO = sig
  val name : string

  type state
  type msg
  type cmd
  type out

  val init : me:int -> n:int -> state * (msg, out) effect_ list
  val on_message :
    state -> me:int -> now:int -> src:int -> msg -> state * (msg, out) effect_ list
  val on_timer :
    state -> me:int -> now:int -> tag:int -> state * (msg, out) effect_ list
  val on_command :
    state -> me:int -> now:int -> cmd -> state * (msg, out) effect_ list
end

type delay_fn = src:int -> dst:int -> now:int -> Rng.t -> int

let uniform_delay ~lo ~hi ~src:_ ~dst:_ ~now:_ rng = Rng.int_in rng (max 1 lo) (max 1 hi)

let gst_delay ~gst ~before ~after ~src ~dst ~now rng =
  if now >= gst then after ~src ~dst ~now rng else before ~src ~dst ~now rng

type config = {
  n : int;
  seed : int;
  horizon : int;
  delay : delay_fn;
  crash_at : (int * int) list;
}

let default_config ?(seed = 42) ?(horizon = 10_000) ?(crash_at = [])
    ?(delay = fun ~src ~dst ~now rng -> uniform_delay ~lo:1 ~hi:3 ~src ~dst ~now rng)
    ~n () =
  { n; seed; horizon; delay; crash_at }

module Make (P : PROTO) = struct
  type event =
    | Deliver of { dst : int; src : int; msg : P.msg }
    | Fire of { pid : int; tag : int }
    | Inject of { pid : int; cmd : P.cmd }

  type outcome = {
    emissions : (int * int * P.out) list;
    messages_sent : int;
    final_time : int;
  }

  let run config ~injections =
    let rng = Rng.make config.seed in
    let n = config.n in
    let states = Array.make n None in
    (* Every event under one pid: deterministic FIFO within a time unit. *)
    let queue = Anon_giraf.Calendar.create () in
    let emissions = ref [] in
    let messages_sent = ref 0 in
    let crash_time pid =
      List.fold_left
        (fun acc (p, t) -> if p = pid then Some t else acc)
        None config.crash_at
    in
    let crashed pid now =
      match crash_time pid with Some t -> now >= t | None -> false
    in
    let push time ev = Anon_giraf.Calendar.add queue ~time ~pid:0 ev in
    let rec apply pid now effects =
      match effects with
      | [] -> ()
      | Send { dst; msg } :: rest ->
        if dst >= 0 && dst < n then begin
          incr messages_sent;
          let d = max 1 (config.delay ~src:pid ~dst ~now rng) in
          push (now + d) (Deliver { dst; src = pid; msg })
        end;
        apply pid now rest
      | Broadcast msg :: rest ->
        for dst = 0 to n - 1 do
          if dst <> pid then begin
            incr messages_sent;
            let d = max 1 (config.delay ~src:pid ~dst ~now rng) in
            push (now + d) (Deliver { dst; src = pid; msg })
          end
        done;
        apply pid now rest
      | Timer { tag; delay } :: rest ->
        push (now + max 1 delay) (Fire { pid; tag });
        apply pid now rest
      | Emit out :: rest ->
        emissions := (now, pid, out) :: !emissions;
        apply pid now rest
    in
    (* Initialization at time 0. *)
    for pid = 0 to n - 1 do
      let st, effects = P.init ~me:pid ~n in
      states.(pid) <- Some st;
      apply pid 0 effects
    done;
    List.iter (fun (time, pid, cmd) -> push (max 1 time) (Inject { pid; cmd })) injections;
    let final_time = ref 0 in
    let continue = ref true in
    while !continue do
      match Anon_giraf.Calendar.pop queue with
      | None -> continue := false
      | Some (time, _, ev) ->
        if time > config.horizon then continue := false
        else begin
          final_time := time;
          let handle pid f =
            if not (crashed pid time) then
              match states.(pid) with
              | None -> ()
              | Some st ->
                let st', effects = f st in
                states.(pid) <- Some st';
                apply pid time effects
          in
          match ev with
          | Deliver { dst; src; msg } ->
            handle dst (fun st -> P.on_message st ~me:dst ~now:time ~src msg)
          | Fire { pid; tag } -> handle pid (fun st -> P.on_timer st ~me:pid ~now:time ~tag)
          | Inject { pid; cmd } ->
            handle pid (fun st -> P.on_command st ~me:pid ~now:time cmd)
        end
    done;
    {
      emissions = List.rev !emissions;
      messages_sent = !messages_sent;
      final_time = !final_time;
    }
end
