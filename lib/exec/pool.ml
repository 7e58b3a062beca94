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
  let wait_us = Array.make n 0.0 in
  let wall0 = O.Clock.now_ns () in
  let run_task i =
    let t0 = O.Clock.now_ns () in
    (* Queue wait: how long the task sat between submission (all tasks
       are submitted when [map] starts) and a worker picking it up. *)
    wait_us.(i) <- O.Clock.ns_to_us (Int64.sub t0 wall0);
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
  (* exec.* metrics, coordinator-side only: the registry is not
     thread-safe and worker tasks may create recorders of their own. *)
  if O.Recorder.active recorder then begin
    let wall = O.Clock.ns_to_us (O.Clock.since_ns wall0) in
    let busy = Array.fold_left ( +. ) 0.0 task_us in
    let module M = O.Metrics in
    M.incr ~by:n (O.Recorder.counter recorder "exec.tasks");
    M.incr ~by:(int_of_float wall) (O.Recorder.counter recorder "exec.wall_us");
    M.incr ~by:(int_of_float busy) (O.Recorder.counter recorder "exec.busy_us");
    M.incr
      ~by:(int_of_float (Float.max 0.0 ((float_of_int jobs *. wall) -. busy)))
      (O.Recorder.counter recorder "exec.idle_us");
    M.set_gauge (O.Recorder.gauge recorder "exec.jobs") (float_of_int jobs);
    if wall > 0.0 then begin
      M.set_gauge (O.Recorder.gauge recorder "exec.speedup") (busy /. wall);
      (* Fraction of the pool's total capacity (jobs × wall) spent inside
         tasks: 1.0 means every domain was busy the whole call. *)
      M.set_gauge
        (O.Recorder.gauge recorder "exec.utilization")
        (busy /. (float_of_int jobs *. wall))
    end;
    let h = O.Recorder.histogram recorder "exec.task_us" in
    Array.iter (fun us -> M.observe h us) task_us;
    let hw = O.Recorder.histogram recorder "exec.queue_wait_us" in
    Array.iter (fun us -> M.observe hw us) wait_us
  end;
  for i = 0 to n - 1 do
    match results.(i) with
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending | Done _ -> ()
  done;
  List.init n (fun i ->
      match results.(i) with Done v -> v | Pending | Failed _ -> assert false)
