open Anon_kernel

type 'msg outbound = { sender : int; msg : 'msg }

type stats = {
  timely : (int * int list) list;
  delivered : int;
  timely_count : int;
}

let dispatch ~round ~outgoing ~crashing_events ~eligible ~receivers ~plan ~crash_rng
    ?on_deliver ~schedule () =
  let timely = ref [] in
  let delivered = ref 0 in
  let timely_count = ref 0 in
  (* Each sender's deliveries are contiguous (one outbound per sender), so
     its timely receivers accumulate in [cur] and join [timely] as a
     single entry once the sender is done. *)
  let cur = ref [] in
  let deliver ~sender ~msg (d : Adversary.delivery) =
    if d.receiver <> sender && eligible d.receiver then begin
      let arrival = max d.arrival round in
      schedule ~sender ~receiver:d.receiver ~arrival ~sent:round msg;
      (match on_deliver with
      | Some f -> f ~sender ~receiver:d.receiver ~arrival
      | None -> ());
      incr delivered;
      if arrival = round then begin
        incr timely_count;
        cur := d.receiver :: !cur
      end
    end
  in
  let flush_timely sender =
    if !cur <> [] then begin
      timely := (sender, !cur) :: !timely;
      cur := []
    end
  in
  let crashing pid =
    List.find_opt (fun (ev : Crash.event) -> ev.pid = pid) crashing_events
  in
  (* Each sender's first plan entry, as [List.assoc_opt] finds it, indexed
     once by pid. Only outgoing senders are looked up, so the largest of
     them sizes the index. *)
  let entries =
    let size = List.fold_left (fun m { sender; _ } -> max m (sender + 1)) 0 outgoing in
    let a = Array.make size None in
    List.iter
      (fun (s, ds) -> if s >= 0 && s < size && Option.is_none a.(s) then a.(s) <- Some ds)
      plan.Adversary.deliveries;
    a
  in
  let entry s = if s >= 0 && s < Array.length entries then entries.(s) else None in
  List.iter
    (fun { sender; msg } ->
      schedule ~sender ~receiver:sender ~arrival:round ~sent:round msg;
      (match crashing sender with
      | Some ev -> (
        let scripted =
          match ev.broadcast with
          | Crash.Broadcast_subset -> entry sender
          | Crash.Silent | Crash.Broadcast_all -> None
        in
        match scripted with
        | Some ds ->
          (* A plan entry for a [Broadcast_subset] crasher pins the partial
             broadcast deterministically (model-checker witnesses replay
             the exact subset); without one the RNG picks as before. *)
          List.iter (fun d -> deliver ~sender ~msg d) ds
        | None ->
          let others = List.filter (fun q -> q <> sender) receivers in
          (match ev.broadcast with
          | Crash.Silent -> ()
          | Crash.Broadcast_all ->
            (* Clean stop: the final broadcast reaches everyone timely
               (crash.mli). Drawing arrivals from [crash_rng] here used to
               let the last message slip past its own round, diverging from
               the model checker's reading. *)
            List.iter
              (fun q -> deliver ~sender ~msg { Adversary.receiver = q; arrival = round })
              others
          | Crash.Broadcast_subset ->
            List.iter
              (fun q ->
                let arrival =
                  if Rng.bool crash_rng then round
                  else round + Rng.int_in crash_rng 1 3
                in
                deliver ~sender ~msg { Adversary.receiver = q; arrival })
              (Rng.subset crash_rng ~p:0.5 others)))
      | None -> (
        match entry sender with
        | None -> ()
        | Some ds -> List.iter (fun d -> deliver ~sender ~msg d) ds));
      flush_timely sender)
    outgoing;
  { timely = !timely; delivered = !delivered; timely_count = !timely_count }
