(* Causal trace export: writes the flat {!Event.t} stream of a run as a
   Chrome trace-event JSON document (Perfetto / chrome://tracing).

   Time is logical, not wall-clock: round [k] occupies the tick interval
   [[(k-1)*1000, k*1000)] and every event is pinned at a fixed integer
   offset inside its round. Two runs at the same seed therefore produce
   byte-identical traces — the trace shows *where rounds go*, and wall
   clock stays the job of {!Metrics}.

   Track layout (one Chrome "process", pid 0):
   - tid 0              the global round timeline (Round_start/Round_end
                        spans, with senders/delivered/timely args)
   - tid p+1            simulated process [p]: one span per round it is
                        alive, plus broadcast/decide/crash/... instants
                        and message flow arrows.

   In-round offsets (ticks):
     +0    round span start        +500  message delivery (flow finish)
     +100  broadcast instant       +900  decide instant
                                   +920  rsm commit instant (rounds track)
     +120  leader instant          +950  crash instant
     +150  message send (flow)
     +960  churn leave/rejoin instant
     +200/+800/+250 weak-set add / add-done / get instants *)

(* --- logical clock -------------------------------------------------------- *)

let round_ticks = 1000
let tick k off = if k < 1 then off else ((k - 1) * round_ticks) + off

(* --- trace-event constructors ---------------------------------------------- *)

let str s = Json.String s
let int i = Json.Int i

let meta ~name ~tid ~value =
  Json.Obj
    [
      ("name", str name); ("ph", str "M"); ("pid", int 0); ("tid", int tid);
      ("args", Json.Obj [ ("name", str value) ]);
    ]

let span ~name ~cat ~tid ~ts ~dur ?(args = []) () =
  let base =
    [
      ("name", str name); ("cat", str cat); ("ph", str "X"); ("ts", int ts);
      ("dur", int dur); ("pid", int 0); ("tid", int tid);
    ]
  in
  Json.Obj (if args = [] then base else base @ [ ("args", Json.Obj args) ])

let instant ~name ~cat ~tid ~ts ?(args = []) () =
  let base =
    [
      ("name", str name); ("cat", str cat); ("ph", str "i"); ("ts", int ts);
      ("pid", int 0); ("tid", int tid); ("s", str "t");
    ]
  in
  Json.Obj (if args = [] then base else base @ [ ("args", Json.Obj args) ])

let flow ~phase ~id ~tid ~ts =
  let base =
    [
      ("name", str "msg"); ("cat", str "msg"); ("ph", str phase); ("id", int id);
      ("ts", int ts); ("pid", int 0); ("tid", int tid);
    ]
  in
  Json.Obj (if phase = "f" then base @ [ ("bp", str "e") ] else base)

(* --- export ---------------------------------------------------------------- *)

let chrome oc =
  (* The run's shape: population, horizon, per-process crash rounds — all
     the document's tail needs. *)
  let algo = ref "" and n_opt = ref None and seed = ref 0 in
  let rounds_end = ref None and max_round = ref 0 and max_pid = ref (-1) in
  let crashed_in : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let see_round k = if k > !max_round then max_round := k in
  let see_pid p = if p > !max_pid then max_pid := p in
  let see (ev : Event.t) =
    match ev with
    | Run_start { algo = a; n; seed = s } ->
      algo := a;
      n_opt := Some n;
      seed := s
    | Run_end { rounds; _ } -> rounds_end := Some rounds
    | Round_start { round } | Round_end { round; _ } | Commit { round; _ } ->
      see_round round
    | Broadcast { pid; round; _ }
    | Decide { pid; round; _ }
    | Churn { pid; round; _ }
    | Leader { pid; round; _ }
    | Ws_add { pid; round; _ }
    | Ws_add_done { pid; round; _ }
    | Ws_get { pid; round; _ } ->
      see_pid pid;
      see_round round
    | Deliver { sender; receiver; round; arrival } ->
      see_pid sender;
      see_pid receiver;
      see_round round;
      see_round arrival
    | Crash { pid; round } ->
      see_pid pid;
      see_round round;
      if not (Hashtbl.mem crashed_in pid) then Hashtbl.add crashed_in pid round
  in
  let first = ref true in
  let push j =
    if !first then first := false else output_char oc ',';
    output_string oc (Json.to_string j)
  in
  (* Each event's own records, as it arrives. *)
  let flow_id = ref 0 in
  let records (ev : Event.t) =
    match ev with
    | Run_start _ -> ()
    | Run_end { rounds; decided } ->
      push
        (instant ~name:"run_end" ~cat:"run" ~tid:0
           ~ts:(tick rounds round_ticks)
           ~args:[ ("rounds", int rounds); ("decided", Json.Bool decided) ]
           ())
    | Round_start _ -> ()
    | Round_end { round; senders; delivered; timely } ->
      push
        (span
           ~name:(Printf.sprintf "round %d" round)
           ~cat:"round" ~tid:0 ~ts:(tick round 0) ~dur:round_ticks
           ~args:
             [
               ("senders", int senders); ("delivered", int delivered);
               ("timely", int timely);
             ]
           ())
    | Broadcast { pid; round; size } ->
      push
        (instant ~name:"broadcast" ~cat:"net" ~tid:(pid + 1)
           ~ts:(tick round 100) ~args:[ ("size", int size) ] ())
    | Deliver { sender; receiver; round; arrival } ->
      incr flow_id;
      push (flow ~phase:"s" ~id:!flow_id ~tid:(sender + 1) ~ts:(tick round 150));
      push
        (flow ~phase:"f" ~id:!flow_id ~tid:(receiver + 1) ~ts:(tick arrival 500))
    | Decide { pid; round; value } ->
      push
        (instant ~name:"decide" ~cat:"consensus" ~tid:(pid + 1)
           ~ts:(tick round 900) ~args:[ ("value", int value) ] ())
    | Commit { instance; round; value } ->
      push
        (instant ~name:"commit" ~cat:"rsm" ~tid:0 ~ts:(tick round 920)
           ~args:[ ("instance", int instance); ("value", int value) ]
           ())
    | Crash { pid; round } ->
      push
        (instant ~name:"crash" ~cat:"fault" ~tid:(pid + 1) ~ts:(tick round 950)
           ())
    | Churn { pid; round; rejoin } ->
      push
        (instant
           ~name:(if rejoin then "churn:rejoin" else "churn:leave")
           ~cat:"churn" ~tid:(pid + 1) ~ts:(tick round 960) ())
    | Leader { pid; round; leader } ->
      push
        (instant ~name:"leader" ~cat:"consensus" ~tid:(pid + 1)
           ~ts:(tick round 120) ~args:[ ("leader", Json.Bool leader) ] ())
    | Ws_add { pid; round; value } ->
      push
        (instant ~name:"ws_add" ~cat:"service" ~tid:(pid + 1)
           ~ts:(tick round 200) ~args:[ ("value", int value) ] ())
    | Ws_add_done { pid; round; value } ->
      push
        (instant ~name:"ws_add_done" ~cat:"service" ~tid:(pid + 1)
           ~ts:(tick round 800) ~args:[ ("value", int value) ] ())
    | Ws_get { pid; round; size } ->
      push
        (instant ~name:"ws_get" ~cat:"service" ~tid:(pid + 1)
           ~ts:(tick round 250) ~args:[ ("size", int size) ] ())
  in
  (* The records that need the whole run's shape, and the document's
     closing fields. *)
  let finish () =
    let n = match !n_opt with Some n -> n | None -> !max_pid + 1 in
    let horizon =
      match !rounds_end with Some r -> max r !max_round | None -> !max_round
    in
    push
      (meta ~name:"process_name" ~tid:0
         ~value:
           (if !algo = "" then "anonc run"
            else Printf.sprintf "anonc run %s n=%d seed=%d" !algo n !seed));
    push (meta ~name:"thread_name" ~tid:0 ~value:"rounds");
    for p = 0 to n - 1 do
      push (meta ~name:"thread_name" ~tid:(p + 1) ~value:(Printf.sprintf "p%d" p))
    done;
    (* Per-process lifetime spans: one per round while alive. A process
       that crashes in round k keeps its round-k span (the crash instant
       sits inside it) and disappears afterwards. *)
    for p = 0 to n - 1 do
      let limit =
        match Hashtbl.find_opt crashed_in p with
        | Some k -> min k horizon
        | None -> horizon
      in
      for k = 1 to limit do
        push
          (span
             ~name:(Printf.sprintf "round %d" k)
             ~cat:"round" ~tid:(p + 1) ~ts:(tick k 0) ~dur:round_ticks ())
      done
    done;
    output_string oc
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clockDomain\":\"logical:1000-ticks-per-round\"}}\n"
  in
  output_string oc "{\"traceEvents\":[";
  Sink.stream oc ~finish ~write:(fun ev ->
      see ev;
      records ev)
