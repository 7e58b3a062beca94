(* The event calendar. See calendar.mli. *)

type 'a entry = { time : int; pid : int; seq : int; ev : 'a }

(* [heap.(0 .. size-1)] is a binary min-heap under [before]: every
   entry sorts no earlier than its parent. *)
type 'a t = { mutable heap : 'a entry array; mutable size : int; mutable seq : int }

let create () = { heap = [||]; size = 0; seq = 0 }

let before a b =
  a.time < b.time
  || (a.time = b.time && (a.pid < b.pid || (a.pid = b.pid && a.seq < b.seq)))

let add t ~time ~pid ev =
  let e = { time; pid; seq = t.seq; ev } in
  t.seq <- t.seq + 1;
  if t.size = Array.length t.heap then begin
    let heap = Array.make (max 16 (2 * t.size)) e in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  (* Sift up: move parents down until [e]'s slot is found. *)
  let rec up i =
    if i = 0 then 0
    else
      let parent = (i - 1) / 2 in
      if before e t.heap.(parent) then begin
        t.heap.(i) <- t.heap.(parent);
        up parent
      end
      else i
  in
  t.heap.(up t.size) <- e;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    let last = t.heap.(t.size) in
    (* Sift [last] down from the root into the hole [top] left. *)
    let rec down i =
      let l = (2 * i) + 1 in
      if l >= t.size then i
      else
        let c = if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l in
        if before t.heap.(c) last then begin
          t.heap.(i) <- t.heap.(c);
          down c
        end
        else i
    in
    if t.size > 0 then t.heap.(down 0) <- last;
    Some (top.time, top.pid, top.ev)
  end

let next_time t = if t.size = 0 then None else Some t.heap.(0).time
