(* Tests for the GIRAF substrate: crash schedules, mailboxes, adversaries,
   the runner's round/delivery semantics, and the trace checkers. *)

open Anon_kernel
module G = Anon_giraf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let pids = Alcotest.(check (list int))

(* --- Crash ------------------------------------------------------------------ *)

let ev pid round broadcast = { G.Crash.pid; round; broadcast }

let test_crash_none () =
  let c = G.Crash.none ~n:4 in
  pids "all correct" [ 0; 1; 2; 3 ] (G.Crash.correct c);
  check_int "no failures" 0 (G.Crash.failures c)

let test_crash_of_events () =
  let c = G.Crash.of_events ~n:4 [ ev 1 3 G.Crash.Silent; ev 3 1 G.Crash.Broadcast_all ] in
  pids "correct" [ 0; 2 ] (G.Crash.correct c);
  check_bool "p1 faulty" false (G.Crash.is_correct c 1);
  check_bool "p1's event" true (G.Crash.event c 1 = Some (ev 1 3 G.Crash.Silent));
  check_bool "no crash" true (G.Crash.event c 0 = None);
  check_int "crashing at 3" 1 (List.length (G.Crash.crashing_at c ~round:3))

let test_crash_reach () =
  let candidates = List.init 12 Fun.id in
  pids "all" candidates (G.Crash.reach G.Crash.Broadcast_all (Rng.make 3) candidates);
  pids "silent" [] (G.Crash.reach G.Crash.Silent (Rng.make 3) candidates);
  let subset = G.Crash.reach G.Crash.Broadcast_subset (Rng.make 3) candidates in
  pids "subset" (Rng.subset (Rng.make 3) ~p:0.5 candidates) subset;
  check_bool "a proper subset" true (subset <> [] && subset <> candidates)

let test_crash_validation () =
  Alcotest.check_raises "dup pid" (Invalid_argument "Crash.of_events: duplicate pid")
    (fun () ->
      ignore (G.Crash.of_events ~n:2 [ ev 0 1 G.Crash.Silent; ev 0 2 G.Crash.Silent ]));
  Alcotest.check_raises "pid range" (Invalid_argument "Crash.of_events: pid out of range")
    (fun () -> ignore (G.Crash.of_events ~n:2 [ ev 5 1 G.Crash.Silent ]));
  Alcotest.check_raises "round >= 1" (Invalid_argument "Crash.of_events: round must be >= 1")
    (fun () -> ignore (G.Crash.of_events ~n:2 [ ev 0 0 G.Crash.Silent ]))

let prop_crash_random =
  QCheck.Test.make ~name:"random schedule respects counts and rounds" ~count:100
    QCheck.(pair small_int (int_range 0 8))
    (fun (seed, failures) ->
      let rng = Rng.make seed in
      let c = G.Crash.random ~n:8 ~failures ~max_round:10 rng in
      G.Crash.failures c = failures
      && List.for_all
           (fun (e : G.Crash.event) -> e.round >= 1 && e.round <= 10)
           (G.Crash.events c))

(* The per-round lookups read an index built with the schedule; each must
   equal filtering [events], which must be the input sorted by round (or
   leave round), then pid. *)
let prop_schedule_lookups =
  QCheck.Test.make ~name:"per-round crash and churn lookups = filtered events"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let n = Rng.int_in rng 1 10 in
      let pids = Rng.shuffle rng (List.init n Fun.id) in
      let crashers, churners = List.partition (fun _ -> Rng.bool rng) pids in
      let crash_evs =
        List.filter_map
          (fun pid ->
            if Rng.chance rng 0.3 then None
            else
              let broadcast =
                Rng.pick rng [ G.Crash.Silent; G.Crash.Broadcast_all; G.Crash.Broadcast_subset ]
              in
              Some { G.Crash.pid; round = Rng.int_in rng 1 6; broadcast })
          crashers
      in
      let churn_evs =
        List.filter_map
          (fun pid ->
            if Rng.chance rng 0.3 then None
            else
              let leave = Rng.int_in rng 1 6 in
              let rejoin =
                if Rng.bool rng then Some (leave + Rng.int_in rng 1 4) else None
              in
              Some { G.Churn.pid; leave; rejoin })
          churners
      in
      let crash = G.Crash.of_events ~n crash_evs in
      let churn = G.Churn.of_events ~n churn_evs in
      let crash_sorted =
        List.sort
          (fun (a : G.Crash.event) (b : G.Crash.event) -> compare (a.round, a.pid) (b.round, b.pid))
          crash_evs
      in
      let churn_sorted =
        List.sort
          (fun (a : G.Churn.event) (b : G.Churn.event) -> compare (a.leave, a.pid) (b.leave, b.pid))
          churn_evs
      in
      G.Crash.events crash = crash_sorted
      && G.Churn.events churn = churn_sorted
      && G.Crash.failures crash = List.length crash_evs
      && G.Churn.churners churn = List.length churn_evs
      && List.for_all
           (fun round ->
             G.Crash.crashing_at crash ~round
             = List.filter (fun (ev : G.Crash.event) -> ev.round = round) (G.Crash.events crash)
             && G.Churn.leaving_at churn ~round
                = List.filter (fun (ev : G.Churn.event) -> ev.leave = round) (G.Churn.events churn)
             && G.Churn.rejoining_at churn ~round
                = List.filter
                    (fun (ev : G.Churn.event) -> ev.rejoin = Some round)
                    (G.Churn.events churn))
           (List.init 14 Fun.id))

(* --- Mailbox ----------------------------------------------------------------- *)

(* Packets filed one at a time, as the live backend and the MS emulation
   file them. *)
let take_string mb ~round =
  let current, fresh = G.Backend.take ~compare:String.compare mb 0 ~round in
  (current, Lazy.force fresh)

let test_mailbox_current_dedup () =
  let mb = G.Backend.create ~n:1 in
  G.Backend.insert ~compare:String.compare mb 0 ~arrival:1 ~sent:1 "a";
  G.Backend.insert ~compare:String.compare mb 0 ~arrival:1 ~sent:1 "a";
  G.Backend.insert ~compare:String.compare mb 0 ~arrival:1 ~sent:1 "b";
  let current, fresh = take_string mb ~round:1 in
  check_int "all arrivals reported fresh" 3 (List.length fresh);
  Alcotest.(check (list string)) "current deduped and sorted" [ "a"; "b" ] current

let test_mailbox_late_messages () =
  let mb = G.Backend.create ~n:1 in
  G.Backend.insert ~compare:String.compare mb 0 ~arrival:3 ~sent:1 "late";
  let _, fresh1 = take_string mb ~round:2 in
  check_int "not arrived yet" 0 (List.length fresh1);
  let current, fresh2 = take_string mb ~round:3 in
  Alcotest.(check (list (pair int string)))
    "late tagged with sent round" [ (1, "late") ] fresh2;
  Alcotest.(check (list string)) "not in the round-3 set" [] current

let test_mailbox_drain_once () =
  let mb = G.Backend.create ~n:1 in
  G.Backend.insert ~compare:String.compare mb 0 ~arrival:1 ~sent:1 "x";
  ignore (take_string mb ~round:1);
  check_int "second drain empty" 0 (List.length (snd (take_string mb ~round:1)))

(* --- Backend mailbox ------------------------------------------------------------ *)

(* The reference model: an unsorted in-flight list, newest first, and
   the inbox assembly that sorted it at every read. *)
let model_ready_inbox ~compare ~round inflight =
  let compare m1 m2 = if m1 == m2 then 0 else compare m1 m2 in
  let ready, rest =
    if List.for_all (fun (a, _, _) -> a <= round) inflight then (inflight, [])
    else List.partition (fun (a, _, _) -> a <= round) inflight
  in
  let ready =
    List.sort
      (fun (a1, s1, m1) (a2, s2, m2) ->
        match Int.compare a1 a2 with
        | 0 -> ( match Int.compare s1 s2 with 0 -> compare m1 m2 | c -> c)
        | c -> c)
      ready
  in
  let rec uniq_current = function
    | [] -> []
    | (_, s, m) :: tl ->
      if s = round then
        match tl with
        | (_, s', m') :: _ when s' = round && compare m m' = 0 -> uniq_current tl
        | _ -> m :: uniq_current tl
      else uniq_current tl
  in
  let current = uniq_current ready in
  let fresh = List.map (fun (_, sent, m) -> (sent, m)) ready in
  (current, fresh, rest)

(* A generated scenario: per sent round, the broadcasts in ascending
   sender pid, each a fresh string (so copies differ under [==]) with its
   [(receiver, arrival)] deliveries, then the drains [(receiver, round)]
   that follow it. *)
let mailbox_receivers = 3

let gen_mailbox_scenario rng =
  let universe = [| 'a'; 'b'; 'c' |] in
  List.init (1 + Rng.int rng 6) (fun i ->
      let sent = i + 1 in
      let broadcasts =
        List.filter_map
          (fun pid ->
            if Rng.chance rng 0.3 then None
            else
              let msg = String.make 1 universe.(Rng.int rng (Array.length universe)) in
              let deliveries =
                List.init (Rng.int rng 5) (fun _ ->
                    (Rng.int rng mailbox_receivers, sent + Rng.int rng 4))
              in
              Some (pid, msg, deliveries))
          [ 0; 1; 2; 3; 4 ]
      in
      let drains =
        List.init (Rng.int rng 3) (fun _ ->
            (Rng.int rng mailbox_receivers, Rng.int rng (sent + 4)))
      in
      (sent, broadcasts, drains))

let same_msgs l1 l2 = List.length l1 = List.length l2 && List.for_all2 ( == ) l1 l2

let same_fresh l1 l2 =
  List.length l1 = List.length l2
  && List.for_all2 (fun (s1, m1) (s2, m2) -> s1 = s2 && m1 == m2) l1 l2

let same_entries l1 l2 =
  List.length l1 = List.length l2
  && List.for_all2 (fun (a1, s1, m1) (a2, s2, m2) -> a1 = a2 && s1 = s2 && m1 == m2) l1 l2

(* What [peek] lists: the model's round-[sent] entries filed with
   [arrival], ascending, keeping of equal messages the oldest copy. *)
let model_peek ~compare ~arrival ~sent inflight =
  let rec uniq = function
    | m :: (m' :: _ as tl) when compare m m' = 0 -> uniq tl
    | m :: tl -> m :: uniq tl
    | [] -> []
  in
  uniq
    (List.stable_sort compare
       (List.filter_map (fun (a, s, m) -> if a = arrival && s = sent then Some m else None) inflight))

(* The model's remainder in the order a later read lists it. *)
let model_order rest =
  List.stable_sort
    (fun (a1, s1, m1) (a2, s2, m2) -> compare (a1, s1, m1) (a2, s2, m2))
    rest

(* A broadcast's generated [(receiver, arrival)] deliveries as the
   groups a plan holds. *)
let groups_of pid deliveries =
  List.concat_map snd
    (G.Adversary.of_links ~source:None
       [
         ( pid,
           List.map (fun (receiver, arrival) -> { G.Adversary.receiver; arrival }) deliveries );
       ])
      .groups

(* Both filing paths against the model, drain by drain: the lockstep
   path files each sent round as the dispatch returns it (senders in pid
   order, each with its self-delivery and its groups) with one ordering;
   the live path inserts the same entries one at a time in a random
   order, peeking now and then. The model sees each path's entries
   newest first, in the order that path scheduled them. A lockstep
   mailbox drains at most the round just filed: a copy that
   drained a later round refuses the filing when it names a receiver
   that took that round or a later one. Every drain's lazy [fresh] is
   forced only at the end, after later rounds (and a repeat of the last
   round) were filed into the same mailboxes and into the snapshot copy,
   or refused there. *)
let prop_mailbox_matches_model =
  QCheck.Test.make ~name:"bucketed mailbox = sort-per-read model" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let scenario = gen_mailbox_scenario rng in
      let compare = String.compare in
      let lock = G.Backend.create ~n:mailbox_receivers in
      let live = G.Backend.create ~n:mailbox_receivers in
      let lock_model = Array.make mailbox_receivers [] in
      let lock_taken = Array.make mailbox_receivers min_int in
      let live_model = Array.make mailbox_receivers [] in
      let snapshot = ref None in
      let ok = ref true in
      let unforced = ref [] in
      let refuses file =
        match file () with () -> false | exception Invalid_argument _ -> true
      in
      let drain boxes model q round =
        let current, fresh = G.Backend.take ~compare boxes q ~round in
        let current', fresh', rest' = model_ready_inbox ~compare ~round model.(q) in
        model.(q) <- rest';
        unforced := (fresh, fresh') :: !unforced;
        ok :=
          !ok && same_msgs current current'
          && same_entries (G.Backend.to_list ~compare boxes q) (model_order rest')
          && G.Backend.length boxes q = List.length rest'
      in
      List.iter
        (fun (sent, broadcasts, drains) ->
          let entries = ref [] in
          let schedule q arrival msg =
            lock_model.(q) <- (arrival, sent, msg) :: lock_model.(q);
            entries := (q, arrival, msg) :: !entries
          in
          let groups =
            List.map (fun (pid, _, deliveries) -> (pid, groups_of pid deliveries)) broadcasts
          in
          List.iter2
            (fun (pid, msg, _) (_, gs) ->
              if pid < mailbox_receivers then schedule pid sent msg;
              List.iter
                (fun (g : G.Adversary.group) ->
                  Pidset.iter (fun q -> if q <> pid then schedule q g.arrival msg) g.receivers)
                gs)
            broadcasts groups;
          let outgoing =
            List.map (fun (sender, msg, _) -> { G.Dispatch.sender; msg }) broadcasts
          in
          let file boxes = G.Backend.file ~compare boxes ~sent outgoing groups in
          file lock;
          if !snapshot = None && Rng.chance rng 0.3 then
            snapshot := Some (G.Backend.copy lock, Array.copy lock_model);
          List.iter
            (fun (q, arrival, msg) ->
              G.Backend.insert ~compare live q ~arrival ~sent msg;
              live_model.(q) <- (arrival, sent, msg) :: live_model.(q);
              (* A peek sorts its bucket, and later inserts keep it sorted. *)
              if Rng.chance rng 0.3 then begin
                let sent = 1 + Rng.int rng sent in
                ok :=
                  !ok
                  && same_msgs
                       (G.Backend.peek ~compare live q ~arrival ~sent)
                       (model_peek ~compare ~arrival ~sent live_model.(q))
              end)
            (Rng.shuffle rng !entries);
          List.iter
            (fun (q, round) ->
              if round <= sent then begin
                drain lock lock_model q round;
                lock_taken.(q) <- Int.max lock_taken.(q) round
              end
              else begin
                let ahead = G.Backend.copy lock in
                ignore (G.Backend.take ~compare ahead q ~round);
                let taken q' = if q' = q then round else lock_taken.(q') in
                let refused = List.exists (fun (q', _, _) -> taken q' >= sent) !entries in
                ok := !ok && refuses (fun () -> file ahead) = refused
              end;
              drain live live_model q round)
            drains)
        scenario;
      for q = 0 to mailbox_receivers - 1 do
        drain lock lock_model q max_int;
        drain live live_model q max_int
      done;
      (* A copy keeps what it held, whatever the original filed or took
         since. *)
      (match !snapshot with
      | Some (boxes, model) ->
        for q = 0 to mailbox_receivers - 1 do
          ok :=
            !ok && same_entries (G.Backend.to_list ~compare boxes q) (model_order model.(q))
        done
      | None -> ());
      (* The last round again, filed into the slices the snapshot still
         shares with drained inboxes, and refused by the drained
         lockstep mailboxes. *)
      let last = List.length scenario in
      let rev_groups = ref [] in
      for q = 0 to mailbox_receivers - 1 do
        let arrival = last + Rng.int rng 4 in
        rev_groups := { G.Adversary.arrival; receivers = Pidset.of_list [ q ] } :: !rev_groups;
        G.Backend.insert ~compare live q ~arrival ~sent:last "z"
      done;
      let file boxes =
        G.Backend.file ~compare boxes ~sent:last
          [ { G.Dispatch.sender = mailbox_receivers; msg = "z" } ]
          [ (mailbox_receivers, List.rev !rev_groups) ]
      in
      ok := !ok && refuses (fun () -> file lock);
      Option.iter (fun (boxes, _) -> file boxes) !snapshot;
      !ok
      && List.for_all
           (fun (fresh, fresh') -> same_fresh (Lazy.force fresh) fresh')
           !unforced)

(* Equal messages: the lockstep filing lists the higher pid's copy first
   in [fresh] and keeps the lowest pid's copy in [current]. *)
let test_mailbox_tie_order () =
  let a0 = String.make 1 'a' and a1 = String.make 1 'a' and a2 = String.make 1 'a' in
  let box = G.Backend.create ~n:1 in
  let broadcasts = [ (0, a0); (1, "b"); (2, a1); (3, a2) ] in
  let to_p0 = { G.Adversary.arrival = 1; receivers = Pidset.of_list [ 0 ] } in
  G.Backend.file ~compare:String.compare box ~sent:1
    (List.map (fun (sender, msg) -> { G.Dispatch.sender; msg }) broadcasts)
    (List.map (fun (pid, _) -> (pid, if pid <> 0 then [ to_p0 ] else [])) broadcasts);
  let current, fresh = G.Backend.take ~compare:String.compare box 0 ~round:1 in
  check_bool "fresh: a by descending pid, then b" true
    (same_fresh (Lazy.force fresh) [ (1, a2); (1, a1); (1, a0); (1, "b") ]);
  check_bool "current keeps p0's copy" true (List.hd current == a0);
  Alcotest.(check (list string)) "current" [ "a"; "b" ] current

(* --- Calendar ------------------------------------------------------------------ *)

let test_calendar_pop_order () =
  let cal = G.Calendar.create () in
  check_bool "empty" true (G.Calendar.next_time cal = None);
  List.iter
    (fun (time, pid, ev) -> G.Calendar.add cal ~time ~pid ev)
    [ (3, 0, "late"); (1, 2, "p2"); (1, 0, "a"); (1, 0, "b"); (2, 0, "mid"); (1, 1, "p1") ];
  Alcotest.(check (option int)) "next time" (Some 1) (G.Calendar.next_time cal);
  let rec drain acc =
    match G.Calendar.pop cal with
    | Some (time, pid, ev) -> drain ((time, pid, ev) :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (triple int int string)))
    "time, then pid, then insertion (FIFO at equal time and pid)"
    [ (1, 0, "a"); (1, 0, "b"); (1, 1, "p1"); (1, 2, "p2"); (2, 0, "mid"); (3, 0, "late") ]
    (drain [])

(* Adds interleaved with pops: every pop returns the first of the pending
   events in a stable sort by (time, pid). *)
let prop_calendar_matches_model =
  QCheck.Test.make ~name:"calendar = stable-sort model" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let cal = G.Calendar.create () in
      let pending = ref [] in
      let ok = ref true in
      let pop_both () =
        let model =
          List.stable_sort
            (fun (t1, p1, _) (t2, p2, _) -> compare (t1, p1) (t2, p2))
            (List.rev !pending)
        in
        match (G.Calendar.pop cal, model) with
        | None, [] -> ()
        | Some got, first :: _ ->
          ok := !ok && got = first;
          pending := List.filter (fun e -> e <> first) !pending
        | _ -> ok := false
      in
      for i = 1 to 200 do
        if Rng.chance rng 0.4 then pop_both ()
        else begin
          let time = Rng.int rng 6 in
          let pid = Rng.int rng 4 in
          G.Calendar.add cal ~time ~pid i;
          pending := (time, pid, i) :: !pending
        end
      done;
      while !pending <> [] do
        pop_both ()
      done;
      !ok && G.Calendar.pop cal = None)

(* --- Shell ---------------------------------------------------------------------- *)

(* Sends the largest value of the round's set; decides 9 or more. *)
module Maxer = struct
  let name = "maxer"

  type state = unit
  type msg = int

  let msg_compare = Int.compare
  let msg_size _ = 1
  let leader () = None
  let initialize v = ((), v)

  let compute () ~round:_ ~(inbox : msg G.Intf.inbox) =
    let m = List.fold_left max 0 inbox.current in
    ((), m, if m >= 9 then Some m else None)
end

module Sh = G.Shell.Make (Maxer)

(* The shell driven by hand: p1 crashes at round 2 with a subset
   broadcast, p2 (input 9) decides on round 1, and the cap is 3. *)
let test_shell_by_hand () =
  let metrics = Anon_obs.Metrics.create () in
  let sh =
    Sh.create ~recorder:(Anon_obs.Recorder.create ~metrics ()) ~inputs:[| 1; 2; 9 |]
      ~crash:(G.Crash.of_events ~n:3 [ ev 1 2 G.Crash.Broadcast_subset ])
      ~max_rounds:3 ~seed:0
  in
  let sent kind step = check_bool "sent" true (step = G.Shell.Sent kind) in
  for p = 0 to 2 do
    sent G.Crash.Broadcast_all (Sh.end_of_round sh p);
    check_int "round 1 initializes" 1 (Sh.round sh p);
    check_int "with the input" [| 1; 2; 9 |].(p) (Sh.message sh p)
  done;
  (* p1's copy reaches p0 before p0 computes round 1, p2's after. *)
  Sh.file sh ~sender:1 ~receiver:0 ~sent:1 [ 2 ];
  sent G.Crash.Broadcast_all (Sh.end_of_round sh 0);
  check_int "p0 computed on {1, 2}" 2 (Sh.message sh 0);
  Sh.file sh ~sender:2 ~receiver:0 ~sent:1 [ 9 ];
  Sh.file sh ~sender:0 ~receiver:2 ~sent:1 [ 1 ];
  check_bool "p2 decides" true (Sh.end_of_round sh 2 = G.Shell.Decided);
  check_bool "and stops" true (Sh.stopped sh 2 && Sh.decided sh 2);
  check_int "at its round counter" 1 (Sh.round sh 2);
  Sh.file sh ~sender:0 ~receiver:2 ~sent:2 [ 2 ];
  sent G.Crash.Broadcast_subset (Sh.end_of_round sh 1);
  check_bool "the crasher stops" true (Sh.stopped sh 1 && not (Sh.decided sh 1));
  sent G.Crash.Broadcast_all (Sh.end_of_round sh 0);
  check_bool "past the cap" true (Sh.end_of_round sh 0 = G.Shell.Capped);
  check_int "nobody runs" 0 (Sh.running sh);
  check_bool "p0 undecided" false (Sh.all_correct_decided sh);
  Alcotest.(check (list (triple int int int))) "decisions" [ (2, 1, 9) ] (Sh.decisions sh);
  let trace = Lazy.force (Sh.finish sh ~env:G.Env.Async) in
  let info k = List.find (fun (i : G.Trace.round_info) -> i.round = k) trace.rounds in
  pids "timely copy" [ 0 ] (Pidset.to_list @@ G.Trace.timely_to (info 1) 1);
  pids "late copy" [] (Pidset.to_list @@ G.Trace.timely_to (info 1) 2);
  pids "obligated at 1" [ 0; 1; 2 ] (info 1).obligated;
  pids "the decider sends nothing" [ 0; 1 ] (info 2).senders;
  pids "the crasher crashes at its round" [ 1 ] (info 2).crashing;
  pids "round 3" [ 0 ] (info 3).senders;
  check_int "rounds" 3 (G.Trace.last_round trace);
  let counter name =
    List.assoc name (Anon_obs.Metrics.snapshot metrics).Anon_obs.Metrics.counters
  in
  check_int "broadcasts" 6 (counter Anon_obs.Name.broadcasts);
  check_int "copies filed, none to a stopped process" 3 (counter Anon_obs.Name.deliveries);
  check_int "decisions" 1 (counter Anon_obs.Name.decisions);
  check_int "crashes" 1 (counter Anon_obs.Name.crashes)

(* --- Adversary ----------------------------------------------------------------- *)

let ctx ~round ~senders ~obligated ~correct ~alive =
  { G.Adversary.round; senders; obligated; correct; alive }

let all_pids = [ 0; 1; 2; 3 ]

let test_adversary_sync () =
  let plan =
    G.Adversary.plan (G.Adversary.sync ())
      (ctx ~round:5 ~senders:all_pids ~obligated:all_pids ~correct:all_pids
         ~alive:all_pids)
      (Rng.make 1)
  in
  check_int "every sender planned" 4 (List.length (G.Adversary.links plan));
  List.iter
    (fun (s, ds) ->
      check_int "covers others" 3 (List.length ds);
      List.iter
        (fun (d : G.Adversary.delivery) ->
          check_bool "timely" true (d.arrival = 5);
          check_bool "not self" true (d.receiver <> s))
        ds)
    (G.Adversary.links plan)

let source_covers (plan : G.Adversary.plan) obligated =
  match plan.source with
  | None -> false
  | Some s ->
    let ds = Option.value ~default:[] (List.assoc_opt s (G.Adversary.links plan)) in
    List.for_all
      (fun q ->
        q = s
        || List.exists
             (fun (d : G.Adversary.delivery) -> d.receiver = q && d.arrival = 5)
             ds)
      obligated

let test_adversary_ms_source () =
  let adv = G.Adversary.ms ~rotation:G.Adversary.Round_robin () in
  let plan =
    G.Adversary.plan adv
      (ctx ~round:5 ~senders:all_pids ~obligated:all_pids ~correct:all_pids
         ~alive:all_pids)
      (Rng.make 1)
  in
  check_bool "source covers obligated" true (source_covers plan all_pids)

let test_adversary_ms_rotation () =
  let adv = G.Adversary.ms ~rotation:G.Adversary.Round_robin () in
  let src round =
    (G.Adversary.plan adv
       (ctx ~round ~senders:all_pids ~obligated:all_pids ~correct:all_pids
          ~alive:all_pids)
       (Rng.make 1))
      .source
  in
  check_bool "rotates" true (src 1 <> src 2)

let test_adversary_source_is_correct_sender () =
  (* Sources must survive the round: candidates are correct senders. *)
  let adv = G.Adversary.ms ~rotation:G.Adversary.Random_source () in
  for round = 1 to 20 do
    let plan =
      G.Adversary.plan adv
        (ctx ~round ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1 ] ~correct:[ 0; 1 ]
           ~alive:[ 0; 1; 2 ])
        (Rng.make round)
    in
    match plan.source with
    | Some s -> check_bool "source correct" true (List.mem s [ 0; 1 ])
    | None -> Alcotest.fail "expected a source"
  done

let test_adversary_es_post_gst () =
  let adv = G.Adversary.es ~gst:10 () in
  let plan =
    G.Adversary.plan adv
      (ctx ~round:10 ~senders:all_pids ~obligated:all_pids ~correct:all_pids
         ~alive:all_pids)
      (Rng.make 1)
  in
  List.iter
    (fun (_, ds) ->
      List.iter
        (fun (d : G.Adversary.delivery) -> check_int "all timely post-gst" 10 d.arrival)
        ds)
    (G.Adversary.links plan)

let test_adversary_blocking_alternates () =
  let adv = G.Adversary.es_blocking ~gst:100 () in
  let src round =
    (G.Adversary.plan adv
       (ctx ~round ~senders:all_pids ~obligated:all_pids ~correct:all_pids
          ~alive:all_pids)
       (Rng.make 1))
      .source
  in
  Alcotest.(check (option int)) "odd source" (Some 0) (src 1);
  Alcotest.(check (option int)) "even source" (Some 1) (src 2)

(* --- Property: plans = the per-sender reference construction ------------------ *)

(* The adversaries as they built plans link by link, before plans held
   receiver sets: every sender's links are mapped afresh from its own
   filtered copy of [alive]. Kept as the reference the set construction
   must equal, link for link. *)
module Ref_adversary = struct
  open G.Adversary

  type link_plan = { source : int option; deliveries : (int * delivery list) list }

  type spec =
    | Sync
    | Ms of { rotation : rotation; noise : float; max_delay : int }
    | Es of { gst : int; noise : float; max_delay : int }
    | Ess of {
        gst : int;
        source : int option;
        rotation : rotation;
        noise : float;
        max_delay : int;
      }
    | Es_blocking of { gst : int }
    | Ess_blocking of { gst : int; source : int option }
    | Dynamic of {
        stability : int;
        rooted : bool;
        rotation : rotation;
        noise : float;
        max_delay : int;
      }
    | Async of { max_delay : int; timely_chance : float }

  let build = function
    | Sync -> sync ()
    | Ms { rotation; noise; max_delay } -> ms ~rotation ~noise ~max_delay ()
    | Es { gst; noise; max_delay } -> es ~gst ~noise ~max_delay ()
    | Ess { gst; source; rotation; noise; max_delay } ->
      ess ~gst ?source ~rotation ~noise ~max_delay ()
    | Es_blocking { gst } -> es_blocking ~gst ()
    | Ess_blocking { gst; source } -> ess_blocking ~gst ?source ()
    | Dynamic { stability; rooted; rotation; noise; max_delay } ->
      dynamic ~stability ~rooted ~rotation ~noise ~max_delay ()
    | Async { max_delay; timely_chance } -> async ~max_delay ~timely_chance ()

  let receivers_of ctx sender = List.filter (fun q -> q <> sender) ctx.alive

  let timely_all ctx =
    let deliveries =
      List.map
        (fun p ->
          (p, List.map (fun q -> { receiver = q; arrival = ctx.round }) (receivers_of ctx p)))
        ctx.senders
    in
    let source = match ctx.senders with [] -> None | s :: _ -> Some s in
    { source; deliveries }

  let late_arrival ctx rng max_delay = ctx.round + Rng.int_in rng 1 (max 1 max_delay)
  let source_candidates ctx = List.filter (fun p -> List.mem p ctx.correct) ctx.senders

  let pick_source ~rotation ctx rng =
    match source_candidates ctx with
    | [] -> None
    | candidates -> (
      match rotation with
      | Round_robin -> Some (List.nth candidates (ctx.round mod List.length candidates))
      | Random_source -> Some (Rng.pick rng candidates)
      | Pinned p -> if List.mem p candidates then Some p else Some (List.hd candidates))

  let noisy_round ~source ~noise ~max_delay ctx rng =
    let deliveries =
      List.map
        (fun p ->
          let is_source = match source with Some s -> s = p | None -> false in
          let plan_receiver q =
            let must_be_timely = is_source && List.mem q ctx.obligated in
            let arrival =
              if must_be_timely || Rng.chance rng noise then ctx.round
              else late_arrival ctx rng max_delay
            in
            { receiver = q; arrival }
          in
          (p, List.map plan_receiver (receivers_of ctx p)))
        ctx.senders
    in
    { source; deliveries }

  let blocking_round ctx =
    let source =
      match source_candidates ctx with
      | [] -> None
      | [ s ] -> Some s
      | s0 :: s1 :: _ -> Some (if ctx.round mod 2 = 1 then s0 else s1)
    in
    let deliveries =
      List.map
        (fun p ->
          let is_source = match source with Some s -> s = p | None -> false in
          let plan q =
            let arrival =
              if is_source && List.mem q ctx.obligated then ctx.round else ctx.round + 1
            in
            { receiver = q; arrival }
          in
          (p, List.map plan (receivers_of ctx p)))
        ctx.senders
    in
    { source; deliveries }

  let stable_rotation source ctx =
    match source with
    | Some p -> Pinned p
    | None -> ( match ctx.correct with [] -> Round_robin | p :: _ -> Pinned p)

  let plan spec ctx rng =
    match spec with
    | Sync -> timely_all ctx
    | Ms { rotation; noise; max_delay } ->
      let source = pick_source ~rotation ctx rng in
      noisy_round ~source ~noise ~max_delay ctx rng
    | Es { gst; noise; max_delay } ->
      if ctx.round >= gst then timely_all ctx
      else
        let source = pick_source ~rotation:Round_robin ctx rng in
        noisy_round ~source ~noise ~max_delay ctx rng
    | Ess { gst; source; rotation; noise; max_delay } ->
      let rotation = if ctx.round >= gst then stable_rotation source ctx else rotation in
      let source = pick_source ~rotation ctx rng in
      noisy_round ~source ~noise ~max_delay ctx rng
    | Es_blocking { gst } -> if ctx.round >= gst then timely_all ctx else blocking_round ctx
    | Ess_blocking { gst; source } ->
      if ctx.round >= gst then
        let source = pick_source ~rotation:(stable_rotation source ctx) ctx rng in
        noisy_round ~source ~noise:0.0 ~max_delay:1 ctx rng
      else blocking_round ctx
    | Dynamic { stability; rooted; rotation; noise; max_delay } ->
      if not (G.Env.pulse ~stability ~round:ctx.round) then timely_all ctx
      else if rooted then
        let source = pick_source ~rotation ctx rng in
        noisy_round ~source ~noise ~max_delay ctx rng
      else noisy_round ~source:None ~noise ~max_delay ctx rng
    | Async { max_delay; timely_chance } ->
      noisy_round ~source:None ~noise:timely_chance ~max_delay ctx rng
end

(* Random contexts over n <= 12: random alive (sometimes shuffled, now and
   then naming a pid twice), sender, obligated and correct subsets, rounds
   on both sides of GST, and every built-in adversary with random
   parameters. Each plan must hold the reference's links, and both must
   leave the RNG in the same state. *)
let prop_plans_match_reference =
  QCheck.Test.make ~name:"plans = per-sender reference construction" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let n = Rng.int_in rng 1 12 in
      let subset () = List.filter (fun _ -> Rng.chance rng 0.7) (List.init n Fun.id) in
      let alive =
        let a = subset () in
        let a = if Rng.chance rng 0.2 then Rng.shuffle rng a else a in
        match a with
        | p :: _ when Rng.chance rng 0.1 -> a @ [ p ]
        | _ -> a
      in
      let senders = if Rng.bool rng then alive else subset () in
      let obligated = if Rng.bool rng then alive else subset () in
      let correct = subset () in
      let gst = Rng.int_in rng 1 15 in
      let round = Rng.int_in rng 1 30 in
      let c = ctx ~round ~senders ~obligated ~correct ~alive in
      let rotation =
        Rng.pick rng
          G.Adversary.[ Round_robin; Random_source; Pinned (Rng.int rng (n + 1)) ]
      in
      let noise = Rng.pick rng [ 0.0; 0.3; 1.0 ] in
      let max_delay = Rng.int_in rng 1 4 in
      let source = if Rng.bool rng then Some (Rng.int rng (n + 1)) else None in
      let spec =
        Rng.pick rng
          Ref_adversary.
            [
              Sync;
              Ms { rotation; noise; max_delay };
              Es { gst; noise; max_delay };
              Ess { gst; source; rotation; noise; max_delay };
              Es_blocking { gst };
              Ess_blocking { gst; source };
              Dynamic
                { stability = Rng.int_in rng 1 4; rooted = Rng.bool rng; rotation; noise; max_delay };
              Async { max_delay; timely_chance = noise };
            ]
      in
      let plan_seed = Rng.int rng 1_000_000 in
      let rng1 = Rng.make plan_seed and rng2 = Rng.make plan_seed in
      let got = G.Adversary.plan (Ref_adversary.build spec) c rng1 in
      let expected = Ref_adversary.plan spec c rng2 in
      (* Each sender's links sorted, [alive]'s order being no set's
         order; as a set when [alive] names a pid twice, which a set
         holds once. *)
      let sort =
        if List.length (List.sort_uniq Int.compare alive) < List.length alive then
          List.sort_uniq compare
        else List.sort compare
      in
      let canonical deliveries =
        List.map
          (fun (s, ds) ->
            (s, sort (List.map (fun (d : G.Adversary.delivery) -> (d.receiver, d.arrival)) ds)))
          deliveries
      in
      got.source = expected.source
      && canonical (G.Adversary.links got) = canonical expected.deliveries
      && rng1 = rng2)

(* The dispatch link by link, each sender's links found by
   [List.assoc_opt] in the plan's link form: every delivery as [(sender,
   receiver, arrival)], self-deliveries included, and the stats. *)
let ref_dispatch ~round ~outgoing ~crashing ~eligible ~receivers
    ~(plan : G.Adversary.plan) ~crash_rng =
  let log = ref [] and timely = ref [] and delivered = ref 0 and count = ref 0 in
  List.iter
    (fun { G.Dispatch.sender; msg = () } ->
      log := (sender, sender, round) :: !log;
      let cur = ref [] in
      let deliver (d : G.Adversary.delivery) =
        if d.receiver <> sender && eligible d.receiver then begin
          let arrival = max d.arrival round in
          log := (sender, d.receiver, arrival) :: !log;
          incr delivered;
          if arrival = round then begin
            incr count;
            cur := d.receiver :: !cur
          end
        end
      in
      let others () = List.filter (fun q -> q <> sender) receivers in
      let entry = List.assoc_opt sender (G.Adversary.links plan) in
      (match List.find_opt (fun (ev : G.Crash.event) -> ev.pid = sender) crashing with
      | None -> Option.iter (List.iter deliver) entry
      | Some ev -> (
        match (ev.broadcast, entry) with
        | G.Crash.Silent, _ -> ()
        | G.Crash.Broadcast_subset, Some ds -> List.iter deliver ds
        | G.Crash.Broadcast_all, _ ->
          List.iter (fun q -> deliver { receiver = q; arrival = round }) (others ())
        | G.Crash.Broadcast_subset, None ->
          List.iter
            (fun q ->
              let arrival =
                if Rng.bool crash_rng then round else round + Rng.int_in crash_rng 1 3
              in
              deliver { receiver = q; arrival })
            (Rng.subset crash_rng ~p:0.5 (others ()))));
      if !cur <> [] then timely := (sender, Pidset.of_list !cur) :: !timely)
    outgoing;
  ( List.rev !log,
    { G.Dispatch.groups = []; timely = !timely; delivered = !delivered; timely_count = !count } )

(* A dispatched round's delivery log, rebuilt from its groups: each
   sender's self-delivery, then every other member of each of its
   groups, ascending. *)
let log_of_groups ~round (stats : G.Dispatch.stats) =
  List.concat_map
    (fun (s, gs) ->
      (s, s, round)
      :: List.concat_map
           (fun (g : G.Adversary.group) ->
             List.filter_map
               (fun q -> if q = s then None else Some (s, q, g.arrival))
               (Pidset.to_list g.receivers))
           gs)
    stats.groups

(* A dispatch log as its runs of one sender each: the run's first
   delivery, then the others sorted. Dispatch orders a sender's
   deliveries by group, the reference by link. *)
let sender_runs log =
  let rec runs = function
    | [] -> []
    | ((s, _, _) as first) :: tl ->
      let rec split acc = function
        | ((s', _, _) as d) :: tl when s' = s -> split (d :: acc) tl
        | rest -> (acc, rest)
      in
      let run, rest = split [] tl in
      (first, List.sort compare run) :: runs rest
  in
  runs log

(* Random rounds over n <= 10: outgoing senders ascending (as a core
   lists them), plan entries in that order or shuffled, with senders
   missing or listed twice, crashing senders of every kind, and receivers
   not all eligible. The dispatched round's groups must hold the
   reference's deliveries in its sender order, each sender's
   self-delivery first and the rest in any order; its counts and timely
   sets must be the reference's; and the crash RNG must be left in the
   same state. *)
let prop_dispatch_matches_reference =
  QCheck.Test.make ~name:"dispatch = assoc-list reference" ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let n = Rng.int_in rng 1 10 in
      let round = Rng.int_in rng 1 20 in
      let subset () = List.filter (fun _ -> Rng.chance rng 0.7) (List.init n Fun.id) in
      let senders = subset () in
      let outgoing = List.map (fun sender -> { G.Dispatch.sender; msg = () }) senders in
      let row () =
        List.map
          (fun q -> { G.Adversary.receiver = q; arrival = round + Rng.int_in rng (-1) 2 })
          (subset ())
      in
      let entries = List.map (fun s -> (s, row ())) (if Rng.bool rng then senders else subset ()) in
      let entries = if Rng.chance rng 0.3 then Rng.shuffle rng entries else entries in
      let entries =
        if Rng.chance rng 0.2 then entries @ List.map (fun (s, _) -> (s, row ())) entries
        else entries
      in
      let crashing =
        List.filter_map
          (fun pid ->
            if Rng.chance rng 0.2 then
              Some
                {
                  G.Crash.pid;
                  round;
                  broadcast = Rng.pick rng G.Crash.[ Silent; Broadcast_all; Broadcast_subset ];
                }
            else None)
          senders
      in
      let live = subset () and receivers = subset () in
      let eligible q = List.mem q live in
      let plan = G.Adversary.of_links ~source:None entries in
      let crash_seed = Rng.int rng 1_000_000 in
      let rng1 = Rng.make crash_seed and rng2 = Rng.make crash_seed in
      let stats =
        G.Dispatch.dispatch ~round ~outgoing ~crashing_events:crashing
          ~eligible:(Pidset.of_list live)
          ~receivers:(fun () -> receivers)
          ~plan ~crash_rng:rng1
      in
      let expected_log, expected_stats =
        ref_dispatch ~round ~outgoing ~crashing ~eligible ~receivers ~plan ~crash_rng:rng2
      in
      sender_runs (log_of_groups ~round stats) = sender_runs expected_log
      && { stats with groups = [] } = expected_stats && rng1 = rng2)

(* --- Runner: a probe algorithm that records its inboxes --------------------- *)

module Probe = struct
  let name = "probe"

  type msg = int (* the sender's input value: constant per process *)
  type state = { me : Value.t; log : (int * int list) list }

  let msg_compare = Int.compare
  let msg_size _ = 1
  let leader _ = None
  let initialize v = ({ me = v; log = [] }, v)

  (* Decide own value at round 4; the message is always the input value. *)
  let compute st ~round ~inbox:{ G.Intf.current; fresh = _ } =
    let st = { st with log = (round, current) :: st.log } in
    if round = 4 then (st, st.me, Some st.me) else (st, st.me, None)
end

module Probe_runner = G.Runner.Make (Probe)

let probe_config ?(inputs = [ 1; 2; 3 ]) ?(crash = G.Crash.none ~n:3)
    ?(adversary = G.Adversary.sync ()) ?(horizon = 20) () =
  G.Runner.default_config ~horizon ~seed:9 ~inputs ~crash adversary

let test_runner_rounds_and_decisions () =
  let out = Probe_runner.run (probe_config ()) in
  check_bool "all decided" true out.all_correct_decided;
  Alcotest.(check (option int)) "decision round" (Some 4) (G.Runner.decision_round out);
  check_int "three decisions" 3 (List.length out.decisions);
  List.iter
    (fun (p, r, v) ->
      check_int "own value" (p + 1) v;
      check_int "at 4" 4 r)
    out.decisions;
  check_int "rounds executed" 5 out.rounds_executed

let test_runner_inbox_contents () =
  let seen = ref [] in
  let observe ~pid ~round st =
    if round >= 1 then seen := (pid, round, st.Probe.log) :: !seen
  in
  ignore (Probe_runner.run ~observe (probe_config ()));
  (* Under sync every round-k inbox holds everybody's (distinct) values. *)
  check_bool "observations recorded" true (!seen <> []);
  List.iter
    (fun (_, round, log) ->
      match List.assoc_opt round log with
      | Some current -> Alcotest.(check (list int)) "full inbox" [ 1; 2; 3 ] current
      | None -> Alcotest.fail "round not logged")
    !seen

let silent_adversary () =
  G.Adversary.scripted ~name:"silent" ~env:G.Env.Async (fun ctx _ ->
      { G.Adversary.source = None;
        groups = List.map (fun p -> (p, [])) ctx.senders })

let test_runner_own_message_always_present () =
  (* Even under a fully silent adversary (no deliveries at all), each
     process sees its own message (Alg. 1 line 10). *)
  let ok = ref true in
  let observe ~pid ~round:_ st =
    match st.Probe.log with
    | (_, current) :: _ -> if current <> [ pid + 1 ] then ok := false
    | [] -> ()
  in
  ignore (Probe_runner.run ~observe (probe_config ~adversary:(silent_adversary ()) ()));
  check_bool "own message only" true !ok

let test_runner_crash_stops_process () =
  let crash = G.Crash.of_events ~n:3 [ ev 1 2 G.Crash.Silent ] in
  let out = Probe_runner.run (probe_config ~crash ()) in
  check_bool "correct still decide" true out.all_correct_decided;
  check_bool "p1 did not decide" true
    (not (List.exists (fun (p, _, _) -> p = 1) out.decisions));
  (* p1 sends round 1 normally and round 2 as its (silent) crash-round
     broadcast, then takes no more steps. *)
  let p1_sends =
    List.length
      (List.filter
         (fun (info : G.Trace.round_info) -> List.mem 1 info.senders)
         out.trace.rounds)
  in
  check_int "p1 sent rounds 1 and 2 only" 2 p1_sends;
  check_bool "p1 listed as crashing in round 2" true
    (List.exists
       (fun (info : G.Trace.round_info) -> info.round = 2 && List.mem 1 info.crashing)
       out.trace.rounds)

let test_runner_identical_messages_merge () =
  (* Two processes with the same input send identical messages: receivers
     must see ONE message (anonymity). *)
  let merged = ref true in
  let observe ~pid:_ ~round:_ st =
    match st.Probe.log with
    | (_, current) :: _ ->
      if List.length current <> List.length (List.sort_uniq Int.compare current) then
        merged := false
    | [] -> ()
  in
  let out = Probe_runner.run ~observe (probe_config ~inputs:[ 7; 7; 3 ] ()) in
  check_bool "deduped" true !merged;
  check_bool "decided" true out.all_correct_decided

let test_runner_horizon () =
  let module Never = G.Runner.Make (struct
    include Probe

    let compute st ~round ~inbox =
      let st, m, _ = compute st ~round ~inbox in
      (st, m, None)
  end) in
  let out = Never.run (probe_config ~adversary:(silent_adversary ()) ~horizon:17 ()) in
  check_int "runs to horizon" 17 out.rounds_executed;
  check_bool "nobody decided" true (out.decisions = [])

(* An algorithm that never reads [fresh] must never pay for it: the lazy
   value reaches [compute] unforced, and nothing in the round forces it
   later. Late arrivals make most inboxes span several buckets. *)
let test_runner_fresh_stays_lazy () =
  let received = ref [] in
  let module Lazy_probe = struct
    include Probe

    let compute st ~round ~inbox =
      received := (Lazy.is_val inbox.G.Intf.fresh, inbox.G.Intf.fresh) :: !received;
      let st, m, _ = compute st ~round ~inbox in
      (st, m, None)
  end in
  let module R = G.Runner.Make (Lazy_probe) in
  ignore
    (R.run
       (probe_config ~inputs:[ 1; 2; 3; 4 ] ~crash:(G.Crash.none ~n:4)
          ~adversary:(G.Adversary.async ~max_delay:3 ()) ~horizon:12 ()));
  check_int "every process computed rounds 1 to 11" (4 * 11) (List.length !received);
  check_bool "fresh unforced when compute received it" true
    (List.for_all (fun (forced, _) -> not forced) !received);
  check_bool "fresh unforced after the run" true
    (List.for_all (fun (_, fresh) -> not (Lazy.is_val fresh)) !received)

(* --- Config validation ----------------------------------------------------- *)

let invalid where what = G.Config_error.Invalid_config { G.Config_error.where; what }

let test_runner_config_validation () =
  Alcotest.check_raises "empty inputs"
    (invalid "Runner.default_config" "inputs must be non-empty") (fun () ->
      ignore (G.Runner.default_config ~inputs:[] ~crash:(G.Crash.none ~n:0)
                (G.Adversary.sync ())));
  Alcotest.check_raises "horizon < 1"
    (invalid "Runner.default_config" "horizon must be >= 1 (got 0)") (fun () ->
      ignore (G.Runner.default_config ~horizon:0 ~inputs:[ 1; 2 ]
                ~crash:(G.Crash.none ~n:2) (G.Adversary.sync ())));
  Alcotest.check_raises "crash size mismatch"
    (invalid "Runner.default_config"
       "inputs/crash size mismatch (3 inputs, crash schedule for 2)") (fun () ->
      ignore (G.Runner.default_config ~inputs:[ 1; 2; 3 ] ~crash:(G.Crash.none ~n:2)
                (G.Adversary.sync ())));
  Alcotest.check_raises "dynamic stability < 1"
    (invalid "Runner.default_config" "stability must be >= 1 (got 0)") (fun () ->
      ignore (G.Runner.default_config ~inputs:[ 1; 2 ] ~crash:(G.Crash.none ~n:2)
                (G.Adversary.of_schedule
                   ~env:(G.Env.Dynamic { stability = 0; rooted = true }) [])));
  (* [run] re-validates directly constructed configs. *)
  let bad =
    { (probe_config ()) with G.Runner.horizon = -5 }
  in
  Alcotest.check_raises "run validates too"
    (invalid "Runner.run" "horizon must be >= 1 (got -5)") (fun () ->
      ignore (Probe_runner.run bad))

(* Bad counts from the command line reach these functions unchecked;
   each rejects them as [Invalid_config], so the CLI exits 2. *)
let test_count_validation () =
  List.iter
    (fun (label, where, f) ->
      match f () with
      | exception G.Config_error.Invalid_config e when e.where = where -> ()
      | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
      | () -> Alcotest.failf "%s: expected Invalid_config" label)
    [
      ( "run/metrics/weakset --failures=-1",
        "Crash.random",
        fun () -> ignore (G.Crash.random ~n:5 ~failures:(-1) ~max_round:10 (Rng.make 1)) );
      ( "run -n 4 --failures 9",
        "Crash.random",
        fun () -> ignore (G.Crash.random ~n:4 ~failures:9 ~max_round:10 (Rng.make 1)) );
      ( "fuzz --runs=-2",
        "Fuzz.campaign",
        fun () -> ignore (Anon_chaos.Fuzz.campaign ~runs:(-2) ~seed:1 ()) );
      ("metrics --runs=-1", "Runs.seeds", fun () -> ignore (Anon_harness.Runs.seeds (-1)));
      ( "run/metrics --gst=-1",
        "Runner.default_config",
        fun () ->
          ignore
            (G.Runner.default_config ~inputs:[ 1; 2 ] ~crash:(G.Crash.none ~n:2)
               (G.Adversary.es ~gst:(-1) ())) );
      ( "skew --max-delay 0",
        "Skew_runner.uniform_delay",
        fun () ->
          ignore
            (G.Skew_runner.uniform_delay ~max:0 ~sender:0 ~receiver:1 ~round:1
               (Rng.make 1)) );
      ( "skew --max-pace=-1",
        "Skew_runner.uniform_pace",
        fun () ->
          ignore (G.Skew_runner.uniform_pace ~max:(-1) ~pid:0 ~round:1 (Rng.make 1)) );
      ( "weakset --ops=-1",
        "Runner.Ws.random_workload",
        fun () ->
          ignore
            (G.Runner.Ws.random_workload ~n:3 ~ops_per_client:(-1) ~max_start:5
               ~value_range:10 (Rng.make 1)) );
      ( "emulate -n 0",
        "Ms_emulation.default_config",
        fun () ->
          ignore
            (Anon_consensus.Ms_emulation.default_config ~inputs:[]
               ~crash:(G.Crash.none ~n:0) ()) );
      ( "emulate --rounds 0",
        "Ms_emulation.default_config",
        fun () ->
          ignore
            (Anon_consensus.Ms_emulation.default_config ~horizon_rounds:0 ~inputs:[ 1; 2 ]
               ~crash:(G.Crash.none ~n:2) ()) );
      ( "emulate --rounds=-1",
        "Ms_emulation.default_config",
        fun () ->
          ignore
            (Anon_consensus.Ms_emulation.default_config ~horizon_rounds:(-1)
               ~inputs:[ 1; 2 ] ~crash:(G.Crash.none ~n:2) ()) );
      ( "sigma --horizon 0",
        "Sigma.two_run_attack",
        fun () ->
          List.iter
            (fun cand -> ignore (Anon_consensus.Sigma.two_run_attack cand ~horizon:0))
            Anon_consensus.Sigma.builtin_candidates );
      ( "sigma --horizon=-1",
        "Sigma.two_run_attack",
        fun () ->
          List.iter
            (fun cand -> ignore (Anon_consensus.Sigma.two_run_attack cand ~horizon:(-1)))
            Anon_consensus.Sigma.builtin_candidates );
    ];
  check_int "--runs 0 stays valid" 0 (List.length (Anon_harness.Runs.seeds 0));
  check_int "an empty campaign" 0 (Anon_chaos.Fuzz.campaign ~runs:0 ~seed:1 ()).runs_done;
  check_bool "--ops 0 stays valid" true
    (List.for_all
       (fun (_, script) -> script = [])
       (G.Runner.Ws.random_workload ~n:3 ~ops_per_client:0 ~max_start:5
          ~value_range:10 (Rng.make 1)))

(* The one schedule validator ([Churn.validate]) behind every backend:
   each caller reports under its own [where] with the shared [what]. *)
let test_schedule_validator_table () =
  let module W = G.Runner.Ws.Make (Anon_consensus.Weak_set_ms) in
  let module Rsm = Anon_rsm.Rsm in
  let inputs = [ 1; 2; 3 ] in
  let crash2 = G.Crash.none ~n:2 in
  let crash_p1 = G.Crash.of_events ~n:3 [ ev 1 2 G.Crash.Silent ] in
  let churn_p1 = G.Churn.of_events ~n:3 [ { pid = 1; leave = 3; rejoin = None } ] in
  let service crash churn =
    W.run
      {
        G.Runner.Ws.n = 3;
        crash;
        churn;
        adversary = G.Adversary.ms ();
        horizon = 10;
        seed = 1;
      }
      ~workload:[]
    |> ignore
  in
  let rsm crash churn =
    Rsm.validate
      {
        Rsm.n = 3;
        window = 1;
        batch = 1;
        horizon = 10;
        seed = 1;
        crash;
        churn;
        adversary = (fun _ -> G.Adversary.sync ());
      }
  in
  let runner crash churn =
    ignore (G.Runner.default_config ~inputs ~crash ~churn (G.Adversary.sync ()))
  in
  let consensus_sys crash churn =
    ignore
      (Anon_mc.Consensus_sys.make
         (module Anon_consensus.Es_consensus)
         { inputs; crash; churn; env = G.Env.Sync; max_delay = 1; armed = false })
  in
  let none3 = G.Churn.none ~n:3 in
  let mismatch = "inputs/crash size mismatch (3 inputs, crash schedule for 2)" in
  let overlap = "p1 both crashes and churns — pick one" in
  List.iter
    (fun (where, what, f) ->
      Alcotest.check_raises (where ^ ": " ^ what) (invalid where what) f)
    [
      ("Runner.default_config", mismatch, fun () -> runner crash2 none3);
      ("Runner.default_config", overlap, fun () -> runner crash_p1 churn_p1);
      ("Runner.Ws.run", mismatch, fun () -> service crash2 none3);
      ("Runner.Ws.run", overlap, fun () -> service crash_p1 churn_p1);
      ( "Skew_runner.default_config",
        mismatch,
        fun () -> ignore (G.Skew_runner.default_config ~inputs ~crash:crash2 ()) );
      ("Rsm.validate", mismatch, fun () -> rsm crash2 none3);
      ("Rsm.validate", overlap, fun () -> rsm crash_p1 churn_p1);
      ( "Live.Runner.default_config",
        mismatch,
        fun () -> ignore (Anon_live.Runner.default_config ~inputs ~crash:crash2 ()) );
      ( "Ms_emulation.default_config",
        mismatch,
        fun () ->
          ignore (Anon_consensus.Ms_emulation.default_config ~inputs ~crash:crash2 ()) );
      ("Consensus_sys.make", mismatch, fun () -> consensus_sys crash2 none3);
      ("Consensus_sys.make", overlap, fun () -> consensus_sys crash_p1 churn_p1);
      ( "Ws_sys.make",
        mismatch,
        fun () ->
          ignore
            (Anon_mc.Ws_sys.make
               {
                 n = 3;
                 crash = crash2;
                 env = G.Env.Ms;
                 max_delay = 1;
                 armed = false;
                 ops_per_client = 1;
               }) );
    ]

let test_service_runner_config_validation () =
  let module W = G.Runner.Ws.Make (Anon_consensus.Weak_set_ms) in
  let config n crash horizon =
    {
      G.Runner.Ws.n;
      crash;
      churn = G.Churn.none ~n;
      adversary = G.Adversary.ms ();
      horizon;
      seed = 1;
    }
  in
  Alcotest.check_raises "n < 1" (invalid "Runner.Ws.run" "inputs must be non-empty")
    (fun () -> ignore (W.run (config 0 (G.Crash.none ~n:0) 10) ~workload:[]));
  Alcotest.check_raises "horizon < 1"
    (invalid "Runner.Ws.run" "horizon must be >= 1 (got 0)") (fun () ->
      ignore (W.run (config 2 (G.Crash.none ~n:2) 0) ~workload:[]));
  Alcotest.check_raises "crash size mismatch"
    (invalid "Runner.Ws.run"
       "inputs/crash size mismatch (3 inputs, crash schedule for 2)") (fun () ->
      ignore (W.run (config 3 (G.Crash.none ~n:2) 10) ~workload:[]));
  Alcotest.check_raises "env gst < 1"
    (invalid "Runner.Ws.run" "gst must be >= 1 (got 0)") (fun () ->
      let adversary = G.Adversary.of_schedule ~env:(G.Env.Es { gst = 0 }) [] in
      ignore (W.run { (config 2 (G.Crash.none ~n:2) 10) with adversary } ~workload:[]))

(* --- Env / Trace / Dispatch ----------------------------------------------------- *)

let test_env_pp_and_gst () =
  Alcotest.(check string) "es" "ES(gst=7)" (G.Env.to_string (G.Env.Es { gst = 7 }));
  Alcotest.(check string) "ms" "MS" (G.Env.to_string G.Env.Ms);
  Alcotest.(check (option int)) "sync gst" (Some 1) (G.Env.gst G.Env.Sync);
  Alcotest.(check (option int)) "ms gst" None (G.Env.gst G.Env.Ms)

let test_trace_accessors () =
  let info =
    {
      G.Trace.round = 2;
      senders = [ 0; 1 ];
      crashing = [];
      source = Some 0;
      timely = [ (0, Pidset.of_list [ 1 ]) ];
      obligated = [ 0; 1 ];
      decided = [ (1, 9) ];
      msg_sizes = [ (0, 3) ];
    }
  in
  pids "timely_to" [ 1 ] (Pidset.to_list @@ G.Trace.timely_to info 0);
  pids "timely_to absent" [] (Pidset.to_list @@ G.Trace.timely_to info 1);
  let t =
    {
      G.Trace.n = 2;
      inputs = [| 9; 9 |];
      crash = G.Crash.none ~n:2;
      churn = G.Churn.none ~n:2;
      env = G.Env.Ms;
      rounds = [ info ];
    }
  in
  Alcotest.(check (list (triple int int int))) "decisions" [ (1, 2, 9) ]
    (G.Trace.decisions t);
  check_int "last round" 2 (G.Trace.last_round t);
  (* Rendering smoke: must not raise and must mention the round. *)
  let s = Format.asprintf "%a" G.Trace.pp t in
  check_bool "pp mentions decisions" true
    (String.length s > 0 && String.contains s '9')

(* [Trace.of_log] on hand-written records: p0 and p1 send the same
   message, p2 computes on a set holding one copy of it, and p3 sends but
   never computes round 1. *)
let test_trace_of_log () =
  let log = G.Trace.Log.create () in
  let crash = G.Crash.of_events ~n:4 [ ev 3 1 G.Crash.Silent ] in
  (* Records arrive out of pid order, as an unsynchronized run files them. *)
  G.Trace.Log.broadcast log ~pid:3 ~round:1 ~size:3 "z";
  G.Trace.Log.broadcast log ~pid:1 ~round:1 ~size:1 "a";
  G.Trace.Log.broadcast log ~pid:2 ~round:1 ~size:2 "b";
  G.Trace.Log.broadcast log ~pid:0 ~round:1 ~size:1 "a";
  G.Trace.Log.crash log ~pid:3 ~round:1;
  G.Trace.Log.read log ~pid:2 ~round:1 [ "a"; "b" ];
  G.Trace.Log.read log ~pid:0 ~round:1 [ "a"; "b" ];
  G.Trace.Log.read log ~pid:1 ~round:1 [ "a"; "z" ];
  G.Trace.Log.decide log ~pid:0 ~round:1 5;
  G.Trace.Log.decide log ~pid:2 ~round:1 5;
  G.Trace.Log.broadcast log ~pid:1 ~round:2 ~size:1 "a";
  let t =
    G.Trace.of_log ~msg_compare:String.compare ~inputs:[| 5; 5; 6; 7 |] ~crash
      ~env:G.Env.Async log
  in
  check_int "rounds up to the highest broadcast" 2 (List.length t.rounds);
  check_bool "env as given" true (t.env = G.Env.Async);
  check_bool "no churn" true (G.Churn.events t.churn = []);
  let r1 = List.hd t.rounds in
  pids "senders in pid order" [ 0; 1; 2; 3 ] r1.senders;
  pids "obligated: who computed, in pid order" [ 0; 1; 2 ] r1.obligated;
  pids "p0: p1 holds its own equal copy, p2 the one copy" [ 1; 2 ]
    (Pidset.to_list @@ G.Trace.timely_to r1 0);
  pids "p1: timely wherever p0 is" [ 0; 2 ] (Pidset.to_list @@ G.Trace.timely_to r1 1);
  pids "p2" [ 0 ] (Pidset.to_list @@ G.Trace.timely_to r1 2);
  pids "p3 reached only p1" [ 1 ] (Pidset.to_list @@ G.Trace.timely_to r1 3);
  check_bool "p3 is no receiver" true
    (List.for_all (fun (_, rs) -> not (Pidset.mem 3 rs)) r1.timely);
  pids "crashing" [ 3 ] r1.crashing;
  Alcotest.(check (list (pair int int))) "decided, latest first" [ (2, 5); (0, 5) ]
    r1.decided;
  Alcotest.(check (list (pair int int))) "msg_sizes in pid order"
    [ (0, 1); (1, 1); (2, 2); (3, 3) ] r1.msg_sizes;
  check_bool "no declared source" true (r1.source = None);
  let r2 = List.nth t.rounds 1 in
  pids "round 2 senders" [ 1 ] r2.senders;
  pids "nobody computed round 2" [] r2.obligated;
  check_bool "no timely pairs" true (r2.timely = [])

let test_dispatch_crash_modes () =
  let deliveries = ref [] in
  let run broadcast =
    let stats =
      G.Dispatch.dispatch ~round:3
        ~outgoing:[ { G.Dispatch.sender = 0; msg = "m" } ]
        ~crashing_events:[ { G.Crash.pid = 0; round = 3; broadcast } ]
        ~eligible:(Pidset.of_list [ 0; 1; 2; 3 ])
        ~receivers:(fun () -> [ 0; 1; 2; 3 ])
        ~plan:{ G.Adversary.source = None; groups = [] }
        ~crash_rng:(Rng.make 1)
    in
    deliveries := List.map (fun (_, q, a) -> (q, a)) (log_of_groups ~round:3 stats);
    (stats, List.filter (fun (r, _) -> r <> 0) !deliveries)
  in
  let _, silent = run G.Crash.Silent in
  check_int "silent reaches nobody" 0 (List.length silent);
  let _, all = run G.Crash.Broadcast_all in
  check_int "broadcast-all reaches everyone else" 3 (List.length all);
  let _, subset = run G.Crash.Broadcast_subset in
  check_bool "subset within others" true (List.length subset <= 3);
  (* Self-delivery always happens regardless of crash mode. *)
  check_bool "self delivery" true
    (List.exists (fun (r, a) -> r = 0 && a = 3) !deliveries)

let test_service_random_workload () =
  let rng = Rng.make 11 in
  let w =
    G.Runner.Ws.random_workload ~n:6 ~ops_per_client:5 ~max_start:20
      ~value_range:10_000 rng
  in
  check_int "six clients" 6 (List.length w);
  let adds =
    List.concat_map
      (fun (_, ops) ->
        List.filter_map
          (fun (_, op) ->
            match op with
            | G.Runner.Ws.Do_add v -> Some v
            | G.Runner.Ws.Do_get | G.Runner.Ws.Do_add_with _ -> None)
          ops)
      w
  in
  check_int "added values are globally distinct" (List.length adds)
    (List.length (List.sort_uniq Int.compare adds));
  List.iter
    (fun (_, ops) ->
      let starts = List.map fst ops in
      check_bool "scripts sorted by start round" true
        (List.sort Int.compare starts = starts))
    w

(* --- Checker ------------------------------------------------------------------ *)

let base_round ~round ~senders ~obligated ~timely =
  {
    G.Trace.round;
    senders;
    crashing = [];
    source = None;
    timely = List.map (fun (s, rs) -> (s, Pidset.of_list rs)) timely;
    obligated;
    decided = [];
    msg_sizes = [];
  }

let mk_trace ?(env = G.Env.Ms) ?(crash = G.Crash.none ~n:3) ~rounds () =
  {
    G.Trace.n = 3;
    inputs = [| 1; 2; 3 |];
    crash;
    churn = G.Churn.none ~n:3;
    env;
    rounds;
  }

let test_checker_ms_ok () =
  let r1 =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1; 2 ]) ]
  in
  check_int "no violation" 0
    (List.length (G.Checker.check_env (mk_trace ~rounds:[ r1 ] ())))

let test_checker_ms_no_source () =
  let r1 =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1 ]); (1, [ 0 ]) ]
  in
  check_int "violation" 1
    (List.length (G.Checker.check_env (mk_trace ~rounds:[ r1 ] ())))

let test_checker_ms_faulty_source_ok () =
  (* A per-round source need not be correct — only present and covering. *)
  let crash = G.Crash.of_events ~n:3 [ ev 0 5 G.Crash.Silent ] in
  let r1 =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 1; 2 ]
      ~timely:[ (0, [ 1; 2 ]) ]
  in
  check_int "faulty source accepted" 0
    (List.length (G.Checker.check_env (mk_trace ~crash ~rounds:[ r1 ] ())))

let test_checker_es_post_gst () =
  let pre =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1; 2 ]) ]
  in
  let post_bad =
    base_round ~round:2 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1; 2 ]) ]
  in
  let vs =
    G.Checker.check_env
      (mk_trace ~env:(G.Env.Es { gst = 2 }) ~rounds:[ pre; post_bad ] ())
  in
  (* p1 and p2 are correct senders but not timely to everybody. *)
  check_int "two lagging senders flagged" 2 (List.length vs)

let test_checker_ess_handover () =
  (* The stable source may change only when the previous one halted. *)
  let r k s ~senders =
    base_round ~round:k ~senders ~obligated:senders
      ~timely:[ (s, List.filter (fun q -> q <> s) senders) ]
  in
  let ok =
    [ r 1 0 ~senders:[ 0; 1; 2 ]; r 2 0 ~senders:[ 0; 1; 2 ]; r 3 1 ~senders:[ 1; 2 ] ]
  in
  check_int "handover after halt ok" 0
    (List.length
       (G.Checker.check_env (mk_trace ~env:(G.Env.Ess { gst = 1 }) ~rounds:ok ())));
  let bad = [ r 1 0 ~senders:[ 0; 1; 2 ]; r 2 1 ~senders:[ 0; 1; 2 ] ] in
  check_int "change while alive flagged" 1
    (List.length
       (G.Checker.check_env (mk_trace ~env:(G.Env.Ess { gst = 1 }) ~rounds:bad ())))

let decided_round ~round ~decided =
  { (base_round ~round ~senders:[] ~obligated:[] ~timely:[]) with G.Trace.decided }

let test_checker_consensus () =
  let tr = mk_trace ~rounds:[ decided_round ~round:4 ~decided:[ (0, 1); (1, 2) ] ] () in
  let vs = G.Checker.check_consensus ~expect_termination:false tr in
  check_int "agreement violation" 1 (List.length vs);
  let tr = mk_trace ~rounds:[ decided_round ~round:4 ~decided:[ (0, 99) ] ] () in
  let vs = G.Checker.check_consensus ~expect_termination:false tr in
  check_int "validity violation" 1 (List.length vs);
  let tr = mk_trace ~rounds:[ decided_round ~round:4 ~decided:[ (0, 1) ] ] () in
  let vs = G.Checker.check_consensus ~expect_termination:true tr in
  check_int "termination violation" 1 (List.length vs)

let test_checker_weak_set () =
  let ops =
    [
      G.Checker.Ws_add
        { add_client = 0; add_value = 5; add_invoked = 1; add_completed = Some 3 };
      G.Checker.Ws_get
        { get_client = 1; get_result = Value.Set.empty; get_invoked = 5; get_completed = 5 };
    ]
  in
  check_int "lost add" 1 (List.length (G.Checker.check_weak_set ops));
  check_int "faulty client excused" 0
    (List.length (G.Checker.check_weak_set ~correct:[ 0 ] ops));
  let phantom =
    [
      G.Checker.Ws_get
        {
          get_client = 1;
          get_result = Value.Set.singleton 9;
          get_invoked = 5;
          get_completed = 5;
        };
    ]
  in
  check_int "phantom value" 1 (List.length (G.Checker.check_weak_set phantom))

(* --- Negative checker tests: exact violation constructors -------------------- *)

let test_checker_exact_agreement () =
  (* Hand-built trace with a seeded disagreement: the checker must name the
     exact pair and values, not merely count a violation. *)
  let tr = mk_trace ~rounds:[ decided_round ~round:4 ~decided:[ (0, 1); (1, 2) ] ] () in
  match G.Checker.check_consensus ~expect_termination:false tr with
  | [ G.Checker.Agreement_violation { p1 = 0; v1 = 1; p2 = 1; v2 = 2 } ] -> ()
  | vs ->
    Alcotest.failf "expected Agreement_violation{p0:1 vs p1:2}, got [%s]"
      (String.concat "; "
         (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs))

let test_checker_exact_no_source () =
  (* Round 2 has senders but nobody's timely set covers the obligated
     processes: exactly [No_source { round = 2 }]. *)
  let ok =
    base_round ~round:1 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (1, [ 0; 2 ]) ]
  in
  let sourceless =
    base_round ~round:2 ~senders:[ 0; 1; 2 ] ~obligated:[ 0; 1; 2 ]
      ~timely:[ (0, [ 1 ]); (2, [ 1 ]) ]
  in
  match G.Checker.check_env (mk_trace ~rounds:[ ok; sourceless ] ()) with
  | [ G.Checker.No_source { round = 2 } ] -> ()
  | vs ->
    Alcotest.failf "expected No_source{round=2}, got [%s]"
      (String.concat "; "
         (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs))

let test_checker_exact_lost_add () =
  (* An add completed at time 3 that a later correct get misses must be
     reported as exactly that lost add. *)
  let ops =
    [
      G.Checker.Ws_add
        { add_client = 0; add_value = 7; add_invoked = 1; add_completed = Some 3 };
      G.Checker.Ws_get
        {
          get_client = 2;
          get_result = Value.Set.empty;
          get_invoked = 6;
          get_completed = 8;
        };
    ]
  in
  match G.Checker.check_weak_set ~correct:[ 0; 1; 2 ] ops with
  | [ G.Checker.Weak_set_lost_add { value = 7; get_client = 2; get_invoked = 6 } ] -> ()
  | vs ->
    Alcotest.failf "expected Weak_set_lost_add{7, client 2, at 6}, got [%s]"
      (String.concat "; "
         (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs))

let test_checker_irrevocability () =
  let pp vs =
    String.concat "; " (List.map (Format.asprintf "%a" G.Checker.pp_violation) vs)
  in
  (* An exempt pid escapes agreement but not irrevocability. *)
  (match
     G.Checker.check_decisions ~exempt:[ 0 ] ~inputs:[ 1; 2 ] [ (0, 3, 1); (0, 4, 2) ]
   with
  | [ G.Checker.Agreement_violation { p1 = 0; v1 = 1; p2 = 0; v2 = 2 } ] -> ()
  | vs -> Alcotest.failf "expected p0 deciding 1 then 2, got [%s]" (pp vs));
  (* Without exemption the redecision also disagrees with the first decider. *)
  match
    G.Checker.check_decisions ~inputs:[ 1; 2 ] [ (1, 3, 1); (0, 3, 1); (0, 4, 2) ]
  with
  | [
   G.Checker.Agreement_violation { p1 = 1; v1 = 1; p2 = 0; v2 = 2 };
   G.Checker.Agreement_violation { p1 = 0; v1 = 1; p2 = 0; v2 = 2 };
  ] -> ()
  | vs -> Alcotest.failf "expected agreement then irrevocability, got [%s]" (pp vs)

(* --- Property: the judges reproduce the reference checkers ------------------------ *)

(* The after-the-fact checks as they stood before they were rebuilt on the
   online judges, kept as reference models: every validity violation, then
   agreement against the first stayer's decision, then termination; every
   lost add, then every phantom value. *)
let model_check_consensus ?(expect_termination = true) (t : G.Trace.t) =
  let decisions = G.Trace.decisions t in
  let proposed = Array.to_list t.inputs in
  let validity =
    List.filter_map
      (fun (pid, _, v) ->
        if List.exists (Value.equal v) proposed then None
        else Some (G.Checker.Validity_violation { pid; value = v }))
      decisions
  in
  let stayer pid = G.Churn.is_stayer t.churn pid in
  let agreement =
    match List.filter (fun (p, _, _) -> stayer p) decisions with
    | [] -> []
    | (p1, _, v1) :: rest ->
      List.filter_map
        (fun (p2, _, v2) ->
          if Value.equal v1 v2 then None
          else Some (G.Checker.Agreement_violation { p1; v1; p2; v2 }))
        rest
  in
  let termination =
    if not expect_termination then []
    else
      let decided = List.map (fun (pid, _, _) -> pid) decisions in
      let undecided =
        List.filter
          (fun p -> stayer p && not (List.mem p decided))
          (G.Crash.correct t.crash)
      in
      if undecided = [] then []
      else
        [ G.Checker.Termination_violation { undecided; horizon = G.Trace.last_round t } ]
  in
  validity @ agreement @ termination

let model_check_weak_set ?correct ops =
  let adds = List.filter_map (function G.Checker.Ws_add a -> Some a | _ -> None) ops in
  let gets = List.filter_map (function G.Checker.Ws_get g -> Some g | _ -> None) ops in
  let is_correct client =
    match correct with None -> true | Some cs -> List.mem client cs
  in
  let lost_for_get (g : G.Checker.ws_get) =
    List.filter_map
      (fun (a : G.Checker.ws_add) ->
        match a.add_completed with
        | Some c when c < g.get_invoked && not (Value.Set.mem a.add_value g.get_result) ->
          Some
            (G.Checker.Weak_set_lost_add
               {
                 value = a.add_value;
                 get_client = g.get_client;
                 get_invoked = g.get_invoked;
               })
        | Some _ | None -> None)
      adds
  in
  let phantom_for_get (g : G.Checker.ws_get) =
    Value.Set.fold
      (fun v acc ->
        let justified =
          List.exists
            (fun (a : G.Checker.ws_add) ->
              Value.equal a.add_value v && a.add_invoked <= g.get_completed)
            adds
        in
        if justified then acc
        else
          G.Checker.Weak_set_phantom_value { value = v; get_client = g.get_client } :: acc)
      g.get_result []
  in
  List.concat_map lost_for_get
    (List.filter (fun (g : G.Checker.ws_get) -> is_correct g.get_client) gets)
  @ List.concat_map phantom_for_get gets

(* --- Property: the link-table env check = the list-based reference ---------- *)

(* [Checker.check_env] as it read coverage before the per-round link
   table: one [List.assoc_opt] and a [List.mem] per obligated receiver. *)
module Ref_env = struct
  open G.Checker

  let missing_receivers (info : G.Trace.round_info) s =
    let reached = s :: Pidset.to_list (G.Trace.timely_to info s) in
    List.filter (fun q -> not (List.mem q reached)) info.obligated

  let covers (info : G.Trace.round_info) s =
    let reached = Pidset.to_list (G.Trace.timely_to info s) in
    List.for_all (fun q -> q = s || List.mem q reached) info.obligated

  let correct_senders (t : G.Trace.t) (info : G.Trace.round_info) =
    List.filter (G.Crash.is_correct t.crash) info.senders

  let demanding_rounds (t : G.Trace.t) =
    List.filter
      (fun (info : G.Trace.round_info) ->
        info.obligated <> [] && correct_senders t info <> [])
      t.rounds

  let check_ms_round (info : G.Trace.round_info) =
    if List.exists (covers info) info.senders then [] else [ No_source { round = info.round } ]

  let check_all_timely t (info : G.Trace.round_info) =
    List.concat_map
      (fun s ->
        if covers info s then []
        else
          [ Source_not_timely
              { round = info.round; sender = s; missing = missing_receivers info s } ])
      (correct_senders t info)

  let check_stable_source t ~gst rounds =
    let late = List.filter (fun (i : G.Trace.round_info) -> i.round >= gst) rounds in
    let candidates_of info = List.filter (covers info) (correct_senders t info) in
    let rec walk candidates = function
      | [] -> []
      | (info : G.Trace.round_info) :: rest ->
        let now = candidates_of info in
        let still = List.filter (fun s -> List.mem s now) candidates in
        if still <> [] then walk still rest
        else if List.for_all (fun s -> not (List.mem s info.senders)) candidates then
          if now = [] then [ Unstable_source { gst } ] else walk now rest
        else [ Unstable_source { gst } ]
    in
    match late with
    | [] -> []
    | first :: rest -> (
      match candidates_of first with
      | [] -> [ Unstable_source { gst } ]
      | candidates -> walk candidates rest)

  let check_root t ~stability (info : G.Trace.round_info) =
    let window = ((info.round - 1) / stability) + 1 in
    if List.exists (covers info) info.senders then []
    else
      [
        No_root
          {
            round = info.round;
            window;
            senders = List.map (fun s -> (s, missing_receivers info s)) (correct_senders t info);
          };
      ]

  let check_stability t ~stability (info : G.Trace.round_info) =
    let window = ((info.round - 1) / stability) + 1 in
    List.concat_map
      (fun s ->
        match missing_receivers info s with
        | [] -> []
        | missing -> [ Stability_violation { round = info.round; window; sender = s; missing } ])
      (correct_senders t info)

  let check_env (t : G.Trace.t) =
    let rounds = demanding_rounds t in
    match t.env with
    | G.Env.Async -> []
    | G.Env.Ms -> List.concat_map check_ms_round rounds
    | G.Env.Sync -> List.concat_map (check_all_timely t) rounds
    | G.Env.Es { gst } ->
      List.concat_map check_ms_round rounds
      @ List.concat_map (check_all_timely t)
          (List.filter (fun (i : G.Trace.round_info) -> i.round >= gst) rounds)
    | G.Env.Ess { gst } -> List.concat_map check_ms_round rounds @ check_stable_source t ~gst rounds
    | G.Env.Dynamic { stability; rooted } ->
      List.concat_map
        (fun (info : G.Trace.round_info) ->
          if G.Env.pulse ~stability ~round:info.round then
            if rooted then check_root t ~stability info else []
          else check_stability t ~stability info)
        rounds
end

(* Random traces under every environment: random crashes, senders and
   obligated sets, senders with no timely entry, timely lists that name a
   sender twice (only the first entry counts) and now and then the sender
   itself, and senders covering everyone often enough that some rounds
   pass, stable sources hold for a while and others hand over. *)
let gen_env_trace rng =
  let n = Rng.int_in rng 1 8 in
  let pids = List.init n Fun.id in
  let subset p = List.filter (fun _ -> Rng.chance rng p) pids in
  let crash =
    G.Crash.of_events ~n
      (List.filter_map
         (fun pid ->
           if Rng.chance rng 0.2 then
             Some { G.Crash.pid; round = Rng.int_in rng 1 10; broadcast = G.Crash.Silent }
           else None)
         pids)
  in
  let gst = Rng.int_in rng 1 8 in
  let env =
    Rng.pick rng
      [
        G.Env.Async;
        G.Env.Ms;
        G.Env.Sync;
        G.Env.Es { gst };
        G.Env.Ess { gst };
        G.Env.Dynamic { stability = Rng.int_in rng 1 3; rooted = Rng.bool rng };
      ]
  in
  let stable = Rng.int rng n in
  let rounds =
    List.init (Rng.int_in rng 0 12) (fun i ->
        let senders = subset 0.8 in
        let obligated = if Rng.bool rng then senders else subset 0.7 in
        let reach s =
          if s = stable || Rng.chance rng 0.3 then List.filter (fun q -> q <> s) pids
          else subset 0.5
        in
        let timely =
          List.concat_map
            (fun s ->
              if Rng.chance rng 0.15 then []
              else if Rng.chance rng 0.1 then [ (s, reach s); (s, subset 0.5) ]
              else [ (s, reach s) ])
            (Rng.shuffle rng senders)
        in
        base_round ~round:(i + 1) ~senders ~obligated ~timely)
  in
  { G.Trace.n; inputs = Array.make n 0; crash; churn = G.Churn.none ~n; env; rounds }

let prop_env_matches_reference =
  QCheck.Test.make ~name:"env check = list-based reference" ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let trace = gen_env_trace (Rng.make seed) in
      G.Checker.check_env trace = Ref_env.check_env trace)

(* Random traces: distinct decider pids spread over a few rounds, random
   churners and crashes, inputs and decided values from small overlapping
   ranges so that validity and agreement violations are common. *)
let gen_consensus_trace rng =
  let n = Rng.int_in rng 1 6 in
  let roles = Rng.shuffle rng (List.init n Fun.id) in
  let churners = List.filteri (fun i _ -> i < Rng.int_in rng 0 n) roles in
  let crashers =
    List.filter (fun p -> (not (List.mem p churners)) && Rng.chance rng 0.25) roles
  in
  let churn =
    G.Churn.of_events ~n
      (List.map
         (fun pid ->
           let leave = Rng.int_in rng 1 5 in
           let rejoin = if Rng.bool rng then Some (leave + 2) else None in
           { G.Churn.pid; leave; rejoin })
         churners)
  in
  let crash = G.Crash.of_events ~n (List.map (fun p -> ev p 2 G.Crash.Silent) crashers) in
  let deciders = List.filter (fun _ -> Rng.chance rng 0.7) (Rng.shuffle rng roles) in
  let last = Rng.int_in rng 1 4 in
  let rounds =
    List.init last (fun i ->
        {
          (base_round ~round:(i + 1) ~senders:[] ~obligated:[] ~timely:[]) with
          G.Trace.decided =
            List.filteri (fun j _ -> j mod last = i) deciders
            |> List.map (fun p -> (p, Rng.int_in rng 0 5));
        })
  in
  {
    G.Trace.n;
    inputs = Array.init n (fun _ -> Rng.int_in rng 0 3);
    crash;
    churn;
    env = G.Env.Sync;
    rounds;
  }

(* Random operation logs: interleaved adds and gets on a small clock, so
   completions coincide with invocations, overlapping operations (as the
   shared-memory scheduler produces) and unjustified values are common. *)
let gen_ws_ops rng =
  let clients = Rng.int_in rng 1 3 in
  let ops =
    List.init (Rng.int_in rng 0 12) (fun _ ->
        let client = Rng.int rng clients in
        let invoked = Rng.int_in rng 0 8 in
        if Rng.bool rng then
          G.Checker.Ws_add
            {
              add_client = client;
              add_value = Rng.int_in rng 0 5;
              add_invoked = invoked;
              add_completed =
                (if Rng.chance rng 0.8 then Some (invoked + Rng.int_in rng 0 3)
                 else None);
            }
        else
          G.Checker.Ws_get
            {
              get_client = client;
              get_result =
                Value.set_of_list
                  (List.filter (fun _ -> Rng.bool rng) (List.init 7 Fun.id));
              get_invoked = invoked;
              get_completed = invoked + Rng.int_in rng 0 3;
            })
  in
  let correct =
    if Rng.bool rng then None
    else Some (List.filter (fun _ -> Rng.bool rng) (List.init clients Fun.id))
  in
  (ops, correct)

let prop_checker_matches_model =
  QCheck.Test.make ~name:"judges = reference checkers, element for element" ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let trace = gen_consensus_trace rng in
      let expect_termination = Rng.bool rng in
      let ops, correct = gen_ws_ops rng in
      G.Checker.check_consensus ~expect_termination trace
      = model_check_consensus ~expect_termination trace
      && G.Checker.check_weak_set ?correct ops = model_check_weak_set ?correct ops)

(* --- Property: every built-in adversary honours its own Env.t ----------------- *)

(* Feed each adversary 200 rounds of contexts from a random crash schedule
   and validate the emitted plans directly against [Checker.check_env] on
   the reconstructed trace — the adversaries and the checker are
   independent implementations of §2.3, so this cross-checks both. *)
let test_adversaries_satisfy_own_env () =
  let n = 5 in
  let gst = 50 in
  let noises = [ 0.0; 0.3 ] in
  let rotations =
    [ G.Adversary.Round_robin; G.Adversary.Random_source; G.Adversary.Pinned 0 ]
  in
  let adversaries =
    [ G.Adversary.sync (); G.Adversary.es_blocking ~gst ();
      G.Adversary.ess_blocking ~gst () ]
    @ List.concat_map
        (fun noise ->
          G.Adversary.es ~gst ~noise ()
          :: List.concat_map
               (fun rotation ->
                 [ G.Adversary.ms ~rotation ~noise ();
                   G.Adversary.ess ~gst ~rotation ~noise () ])
               rotations)
        noises
    @ List.concat_map
        (fun stability ->
          List.concat_map
            (fun rooted ->
              List.concat_map
                (fun rotation ->
                  List.map
                    (fun noise -> G.Adversary.dynamic ~stability ~rooted ~rotation ~noise ())
                    noises)
                rotations)
            [ true; false ])
        [ 1; 2; 3 ]
    @ List.map (fun timely_chance -> G.Adversary.async ~timely_chance ()) noises
  in
  List.iteri
    (fun i adv ->
      let rng = Rng.make (7000 + i) in
      (* Crashes only on pids >= 1, so [Pinned 0] stays a correct source. *)
      let failures = Rng.int_in rng 1 (n - 2) in
      let crash_events =
        Rng.shuffle rng (List.init (n - 1) (fun p -> p + 1))
        |> List.filteri (fun j _ -> j < failures)
        |> List.map (fun pid ->
               { G.Crash.pid; round = Rng.int_in rng 1 150;
                 broadcast = G.Crash.Broadcast_all })
      in
      let crash = G.Crash.of_events ~n crash_events in
      let correct = G.Crash.correct crash in
      let rounds =
        List.init 200 (fun idx ->
            let round = idx + 1 in
            let live =
              List.filter
                (fun p ->
                  match G.Crash.event crash p with
                  | None -> true
                  | Some ev -> ev.round > round)
                (List.init n Fun.id)
            in
            let c = ctx ~round ~senders:live ~obligated:live ~correct ~alive:live in
            let plan = G.Adversary.plan adv c rng in
            List.iter
              (fun (_, ds) ->
                List.iter
                  (fun (d : G.Adversary.delivery) ->
                    if d.arrival < round then
                      Alcotest.failf "%s: arrival %d before round %d"
                        (G.Adversary.name adv) d.arrival round)
                  ds)
              (G.Adversary.links plan);
            let timely =
              List.map
                (fun (s, ds) ->
                  ( s,
                    Pidset.of_list
                      (List.filter_map
                         (fun (d : G.Adversary.delivery) ->
                           if d.arrival = round then Some d.receiver else None)
                         ds) ))
                (G.Adversary.links plan)
            in
            {
              G.Trace.round;
              senders = live;
              crashing = [];
              source = plan.source;
              timely;
              obligated = live;
              decided = [];
              msg_sizes = [];
            })
      in
      let trace =
        {
          G.Trace.n;
          inputs = Array.make n 1;
          crash;
          churn = G.Churn.none ~n;
          env = G.Adversary.env adv;
          rounds;
        }
      in
      match G.Checker.check_env trace with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%s violates its own %s: %s" (G.Adversary.name adv)
          (G.Env.to_string (G.Adversary.env adv))
          (Format.asprintf "%a" G.Checker.pp_violation v))
    adversaries

(* Random small rounds as the model checker meets them: n <= 4, every
   environment, rounds around GST, an ESS stable source latched or not
   (and then still sending or halted), and senders crashing with
   [Broadcast_subset]. Every choice [Plan_enum.enumerate] makes is
   dispatched and replayed as a one-round trace: [Checker.check_env]
   passes each admissible one and flags each armed one. *)
let prop_plan_enum_agrees_with_checker =
  QCheck.Test.make ~name:"plan_enum choices = checker on one round" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let n = Rng.int_in rng 1 4 in
      let gst = Rng.int_in rng 1 4 in
      let round = Rng.int_in rng (max 1 (gst - 1)) (gst + 1) in
      let env =
        match Rng.int rng 6 with
        | 0 -> G.Env.Sync
        | 1 -> G.Env.Ms
        | 2 -> G.Env.Es { gst }
        | 3 -> G.Env.Ess { gst }
        | 4 -> G.Env.Async
        | _ -> G.Env.Dynamic { stability = Rng.int_in rng 1 3; rooted = Rng.bool rng }
      in
      (* Each pid is live and correct, live and crashing later, crashing
         now, halted, or (past round 1) crashed earlier. *)
      let fates = List.init n (fun p -> (p, Rng.int rng (if round > 1 then 5 else 4))) in
      let with_fate fs =
        List.filter_map (fun (p, f) -> if List.mem f fs then Some p else None) fates
      in
      let live = with_fate [ 0; 1 ] and crashing = with_fate [ 2 ] in
      let correct = with_fate [ 0; 3 ] in
      let crash =
        G.Crash.of_events ~n
          (List.filter_map
             (fun (pid, f) ->
               let at r =
                 Some { G.Crash.pid; round = r; broadcast = G.Crash.Broadcast_subset }
               in
               match f with
               | 1 -> at (round + 1)
               | 2 -> at round
               | 4 -> at (round - 1)
               | _ -> None)
             fates)
      in
      let stable =
        match env with
        | G.Env.Ess _ when correct <> [] && Rng.bool rng -> Some (Rng.pick rng correct)
        | _ -> None
      in
      let spec =
        {
          G.Plan_enum.env;
          stable;
          max_delay = (if n <= 3 then Rng.int_in rng 1 2 else 1);
          crashing;
          include_inadmissible = true;
        }
      in
      let c = ctx ~round ~senders:live ~obligated:live ~correct ~alive:live in
      let senders = List.sort compare (live @ crashing) in
      let outgoing = List.map (fun sender -> { G.Dispatch.sender; msg = () }) senders in
      let crashing_events = G.Crash.crashing_at crash ~round in
      let findings (plan : G.Adversary.plan) =
        let stats =
          G.Dispatch.dispatch ~round ~outgoing ~crashing_events
            ~eligible:(Pidset.of_list live)
            ~receivers:(fun () -> live)
            ~plan ~crash_rng:(Rng.make 0)
        in
        G.Checker.check_env
          {
            G.Trace.n;
            inputs = Array.make n 1;
            crash;
            churn = G.Churn.none ~n;
            env;
            rounds =
              [
                {
                  G.Trace.round;
                  senders;
                  crashing;
                  source = plan.source;
                  timely = stats.timely;
                  obligated = live;
                  decided = [];
                  msg_sizes = [];
                };
              ];
          }
      in
      List.for_all
        (fun (choice : G.Plan_enum.choice) ->
          match (choice.admissible, findings choice.plan) with
          | true, [] | false, _ :: _ -> true
          | true, v :: _ ->
            QCheck.Test.fail_reportf "%s round %d: admissible plan flagged: %a"
              (G.Env.to_string env) round G.Checker.pp_violation v
          | false, [] ->
            QCheck.Test.fail_reportf "%s round %d: armed plan not flagged"
              (G.Env.to_string env) round)
        (G.Plan_enum.enumerate spec c))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "giraf"
    [
      ( "crash",
        [
          Alcotest.test_case "none" `Quick test_crash_none;
          Alcotest.test_case "of_events" `Quick test_crash_of_events;
          Alcotest.test_case "validation" `Quick test_crash_validation;
          Alcotest.test_case "reach" `Quick test_crash_reach;
          qc prop_crash_random;
          qc prop_schedule_lookups;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "current dedup" `Quick test_mailbox_current_dedup;
          Alcotest.test_case "late messages" `Quick test_mailbox_late_messages;
          Alcotest.test_case "drain once" `Quick test_mailbox_drain_once;
        ] );
      ( "calendar",
        [
          Alcotest.test_case "pop order" `Quick test_calendar_pop_order;
          qc prop_calendar_matches_model;
        ] );
      ( "backend mailbox",
        [
          qc prop_mailbox_matches_model;
          Alcotest.test_case "tie order" `Quick test_mailbox_tie_order;
        ] );
      ( "shell",
        [
          Alcotest.test_case "end-of-round by hand" `Quick test_shell_by_hand;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "sync" `Quick test_adversary_sync;
          Alcotest.test_case "ms source" `Quick test_adversary_ms_source;
          Alcotest.test_case "ms rotation" `Quick test_adversary_ms_rotation;
          Alcotest.test_case "source is correct sender" `Quick
            test_adversary_source_is_correct_sender;
          Alcotest.test_case "es post gst" `Quick test_adversary_es_post_gst;
          Alcotest.test_case "blocking alternates" `Quick
            test_adversary_blocking_alternates;
          qc prop_plans_match_reference;
        ] );
      ( "runner",
        [
          Alcotest.test_case "rounds and decisions" `Quick
            test_runner_rounds_and_decisions;
          Alcotest.test_case "inbox contents" `Quick test_runner_inbox_contents;
          Alcotest.test_case "own message" `Quick test_runner_own_message_always_present;
          Alcotest.test_case "crash stops process" `Quick test_runner_crash_stops_process;
          Alcotest.test_case "identical messages merge" `Quick
            test_runner_identical_messages_merge;
          Alcotest.test_case "horizon" `Quick test_runner_horizon;
          Alcotest.test_case "fresh stays lazy" `Quick test_runner_fresh_stays_lazy;
        ] );
      ( "env-trace-dispatch",
        [
          Alcotest.test_case "env pp/gst" `Quick test_env_pp_and_gst;
          Alcotest.test_case "trace accessors" `Quick test_trace_accessors;
          Alcotest.test_case "trace of log" `Quick test_trace_of_log;
          Alcotest.test_case "dispatch crash modes" `Quick test_dispatch_crash_modes;
          qc prop_dispatch_matches_reference;
          Alcotest.test_case "random workload" `Quick test_service_random_workload;
        ] );
      ( "checker",
        [
          Alcotest.test_case "ms ok" `Quick test_checker_ms_ok;
          Alcotest.test_case "ms no source" `Quick test_checker_ms_no_source;
          Alcotest.test_case "faulty source ok" `Quick test_checker_ms_faulty_source_ok;
          Alcotest.test_case "es post gst" `Quick test_checker_es_post_gst;
          Alcotest.test_case "ess handover" `Quick test_checker_ess_handover;
          Alcotest.test_case "consensus" `Quick test_checker_consensus;
          Alcotest.test_case "weak set" `Quick test_checker_weak_set;
          Alcotest.test_case "exact agreement violation" `Quick
            test_checker_exact_agreement;
          Alcotest.test_case "exact no source" `Quick test_checker_exact_no_source;
          Alcotest.test_case "exact lost add" `Quick test_checker_exact_lost_add;
          Alcotest.test_case "irrevocability" `Quick test_checker_irrevocability;
          qc prop_checker_matches_model;
          qc prop_env_matches_reference;
        ] );
      ( "config",
        [
          Alcotest.test_case "runner validation" `Quick
            test_runner_config_validation;
          Alcotest.test_case "service runner validation" `Quick
            test_service_runner_config_validation;
          Alcotest.test_case "count validation" `Quick test_count_validation;
          Alcotest.test_case "schedule validator table" `Quick
            test_schedule_validator_table;
        ] );
      ( "env-property",
        [
          Alcotest.test_case "adversaries satisfy own env" `Quick
            test_adversaries_satisfy_own_env;
          qc prop_plan_enum_agrees_with_checker;
        ] );
    ]
