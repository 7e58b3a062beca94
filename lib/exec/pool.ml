module O = Anon_obs

let auto_jobs () = max 1 (Domain.recommended_domain_count ())

let isolate f x = Anon_kernel.History.with_fresh_interner (fun () -> f x)

(* Workers mark their domain so nested [map] calls degrade to the
   sequential path instead of spawning domains-within-domains. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type 'b slot = Pending | Done of 'b | Failed of exn * Printexc.raw_backtrace

let map ?(jobs = 1) ?(recorder = O.Recorder.off) f items =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n Pending in
  let task_us = Array.make n 0.0 in
  let wall0 = O.Clock.now_ns () in
  let run_task i =
    let t0 = O.Clock.now_ns () in
    results.(i) <-
      (match isolate f items.(i) with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ()));
    task_us.(i) <- O.Clock.ns_to_us (O.Clock.since_ns t0)
  in
  let parallel = jobs > 1 && n > 1 && not (Domain.DLS.get in_worker_key) in
  if not parallel then
    for i = 0 to n - 1 do
      run_task i
    done
  else begin
    (* Slots are written at distinct indices by exactly one worker each,
       and [Domain.join] orders those writes before the coordinator's
       reads. *)
    let next = Atomic.make 0 in
    let worker () =
      Domain.DLS.set in_worker_key true;
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run_task i;
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains
  end;
  (* Coordinator-side only: the registry is not thread-safe and worker
     tasks may create recorders of their own. *)
  if O.Recorder.active recorder then begin
    let us name v =
      O.Metrics.incr ~by:(int_of_float v) (O.Recorder.counter recorder name)
    in
    us "exec.busy_us" (Array.fold_left ( +. ) 0.0 task_us);
    us "exec.wall_us" (O.Clock.ns_to_us (O.Clock.since_ns wall0))
  end;
  for i = 0 to n - 1 do
    match results.(i) with
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending | Done _ -> ()
  done;
  List.init n (fun i ->
      match results.(i) with Done v -> v | Pending | Failed _ -> assert false)
