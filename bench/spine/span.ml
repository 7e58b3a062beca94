(* Outside-in spans for the traced sample.

   A span times one call into a layer's public function. Spans nest: the
   innermost open span is the parent of the next one, and a span's self
   time is its duration minus the time its child spans cover. Calls that
   run millions of times are aggregated in memory per span name (count,
   total, self); spans opened with [~round] are also kept one by one, so
   the traced consensus sample can be written out round by round. *)

type t = {
  name : string;
  mutable parent : string;  (** Enclosing span of the first call ("" = root). *)
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable last_ns : int;  (** Duration of the most recent call. *)
}

type event = {
  id : int;
  parent_id : int;  (** 0 = no enclosing per-round span. *)
  ev_name : string;
  round : int;
  start_ns : int;
  dur_ns : int;
}

let registry : t list ref = ref []

let make name =
  let s = { name; parent = ""; count = 0; total_ns = 0; self_ns = 0; last_ns = 0 } in
  registry := s :: !registry;
  s

let now () = Int64.to_int (Anon_obs.Clock.now_ns ())

(* Time covered by the closed children of the innermost open span. *)
let child_ns = ref 0

(* Time spent measuring rather than running the program ({!probe}):
   excluded from the enclosing span's self time and from the traced wall
   time that coverage is taken against. *)
let probe_ns = ref 0

let current = ref ""
let current_event = ref 0
let next_event = ref 1
let events : event list ref = ref []

let reset () =
  List.iter
    (fun s ->
      s.parent <- "";
      s.count <- 0;
      s.total_ns <- 0;
      s.self_ns <- 0;
      s.last_ns <- 0)
    !registry;
  child_ns := 0;
  probe_ns := 0;
  current := "";
  current_event := 0;
  next_event := 1;
  events := []

let time ?round s f =
  let saved_child = !child_ns and saved_current = !current in
  let saved_event = !current_event in
  let id =
    match round with
    | None -> 0
    | Some _ ->
      let id = !next_event in
      incr next_event;
      current_event := id;
      id
  in
  if s.count = 0 then s.parent <- saved_current;
  child_ns := 0;
  current := s.name;
  let t0 = now () in
  let finish () =
    let dt = now () - t0 in
    s.count <- s.count + 1;
    s.total_ns <- s.total_ns + dt;
    s.self_ns <- s.self_ns + dt - !child_ns;
    s.last_ns <- dt;
    child_ns := saved_child + dt;
    current := saved_current;
    current_event := saved_event;
    match round with
    | None -> ()
    | Some round ->
      events :=
        { id; parent_id = saved_event; ev_name = s.name; round; start_ns = t0; dur_ns = dt }
        :: !events
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let probe f =
  let t0 = now () in
  f ();
  let dt = now () - t0 in
  probe_ns := !probe_ns + dt;
  child_ns := !child_ns + dt

let ms_of_ns ns = float_of_int ns /. 1e6
let self_ms s = ms_of_ns s.self_ns
let total_ms s = ms_of_ns s.total_ns
let total_self_ms () = List.fold_left (fun acc s -> acc +. self_ms s) 0. !registry

(* One JSON object per line: the aggregate of every span that ran, then
   the per-round spans in start order. *)
let write ~path =
  let module J = Anon_obs.Json in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line j =
        output_string oc (J.to_string j);
        output_char oc '\n'
      in
      List.iter
        (fun s ->
          if s.count > 0 then
            line
              (J.Obj
                 [
                   ("kind", J.String "aggregate");
                   ("name", J.String s.name);
                   ("parent", J.String s.parent);
                   ("count", J.Int s.count);
                   ("total_ms", J.Float (total_ms s));
                   ("self_ms", J.Float (self_ms s));
                 ]))
        (List.rev !registry);
      let t0 = List.fold_left (fun acc e -> min acc e.start_ns) max_int !events in
      List.iter
        (fun e ->
          line
            (J.Obj
               [
                 ("kind", J.String "span");
                 ("id", J.Int e.id);
                 ("parent", J.Int e.parent_id);
                 ("name", J.String e.ev_name);
                 ("round", J.Int e.round);
                 ("start_us", J.Float (float_of_int (e.start_ns - t0) /. 1e3));
                 ("dur_us", J.Float (float_of_int e.dur_ns /. 1e3));
               ]))
        (List.sort (fun a b -> compare a.id b.id) !events))
