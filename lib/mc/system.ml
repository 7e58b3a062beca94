module G = Anon_giraf

module type FAMILY = sig
  module Core : G.Intf.CORE

  type node

  val crash : G.Crash.t
  val churn : G.Churn.t
  val env : G.Env.t
  val max_delay : int
  val armed : bool
  val state_key : Core.state -> string
  val msg_key : Core.msg -> string
  val core : node -> Core.t
  val stable : node -> int option
  val init : unit -> node
  val step : node -> G.Adversary.plan -> node * G.Checker.violation list
  val view_extra : Canon.Digest.stream -> node -> int -> unit
  val global : node -> string
  val terminal : node -> bool
  val pending : node -> int list
  val snapshot : node -> string
end

module Make (F : FAMILY) = struct
  module Core = F.Core
  module D = Canon.Digest

  let n = G.Crash.n F.crash

  (* The scheduled crash and churn windows are part of a process's view
     key, so symmetry reduction never merges processes whose futures
     differ. Both are fixed per exploration — render once. *)
  let fate_str =
    Array.init n (fun p ->
        match G.Crash.crash_round F.crash p with
        | None -> ""
        | Some r ->
          let kind =
            match
              List.find_opt
                (fun (e : G.Crash.event) -> e.pid = p)
                (G.Crash.events F.crash)
            with
            | Some { broadcast = G.Crash.Silent; _ } -> 's'
            | Some { broadcast = G.Crash.Broadcast_all; _ } -> 'a'
            | Some { broadcast = G.Crash.Broadcast_subset; _ } | None -> 'b'
          in
          Printf.sprintf "c%d%c" r kind)

  let churn_fate_str =
    Array.init n (fun p ->
        match G.Churn.event F.churn p with
        | None -> ""
        | Some { leave; rejoin; _ } ->
          Printf.sprintf "l%d%s" leave
            (match rejoin with Some r -> Printf.sprintf "j%d" r | None -> ""))

  type sys = {
    node : F.node;  (** The system after the compute phase of iteration [round]. *)
    digest : D.t;
    memo : G.Plan_enum.memo;
        (** Plan-enumeration cache. Shared along the whole search at
            [jobs = 1] (states of one exploration repeat their enumeration
            signature constantly); per-replay at [jobs > 1], where tasks
            must not share tables across domains. *)
  }

  let init () = { node = F.init (); digest = D.create ~n; memo = G.Plan_enum.memo () }

  let step s plan =
    let node, vs = F.step s.node plan in
    ({ s with node; digest = D.copy s.digest }, vs)

  let apply s plan = fst (step s plan)

  (* The marker attached to an armed (inadmissible) plan names the
     obligation the all-late plan breaks in this environment — exactly
     what the offline checker will report for the replayed trace. *)
  let armed_violations (c : G.Adversary.ctx) =
    let round = c.round in
    match F.env with
    | G.Env.Dynamic { stability; _ } ->
      let window = ((round - 1) / stability) + 1 in
      let correct_senders = List.filter (fun p -> List.mem p c.correct) c.senders in
      if G.Env.pulse ~stability ~round then
        [
          G.Checker.No_root
            {
              round;
              window;
              senders =
                List.map
                  (fun p -> (p, List.filter (fun q -> q <> p) c.obligated))
                  correct_senders;
            };
        ]
      else
        List.map
          (fun p ->
            G.Checker.Stability_violation
              {
                round;
                window;
                sender = p;
                missing = List.filter (fun q -> q <> p) c.obligated;
              })
          correct_senders
    | G.Env.Sync | G.Env.Ms | G.Env.Es _ | G.Env.Ess _ | G.Env.Async ->
      [ G.Checker.No_source { round } ]

  let expand s =
    let core = F.core s.node in
    let c0 = Core.ctx core in
    let pspec =
      {
        G.Plan_enum.env = F.env;
        stable = F.stable s.node;
        max_delay = F.max_delay;
        crashing = Core.crashing_pids core;
        include_inadmissible = F.armed;
      }
    in
    List.map
      (fun (c : G.Plan_enum.choice) ->
        let s', vs = step s c.plan in
        let vs = if c.admissible then vs else armed_violations c0 @ vs in
        (c.plan, s', vs))
      (G.Plan_enum.enumerate_memo s.memo pspec c0)

  (* The one process-view writer: fed into the digest streams behind
     [key], and into text for the reference [key_full]. *)
  let write_view st node p =
    let core = F.core node in
    match Core.fate core p with
    | G.Step_core.Crashed -> D.feed_char st 'X'
    | G.Step_core.Halted -> D.feed_char st 'H'
    | G.Step_core.Away ->
      D.feed_string st "A|";
      D.feed_string st churn_fate_str.(p)
    | G.Step_core.Live ->
      let fl =
        List.sort
          (fun (a1, s1, (k1 : string)) (a2, s2, k2) ->
            match Int.compare a1 a2 with
            | 0 -> ( match Int.compare s1 s2 with 0 -> String.compare k1 k2 | c -> c)
            | c -> c)
          (List.map (fun (a, sent, m) -> (a, sent, F.msg_key m)) (Core.inflight core p))
      in
      (match Core.state core p with
      | Some stv -> D.feed_string st (F.state_key stv)
      | None -> ());
      D.feed_string st "|m:";
      (match Core.out core p with
      | Some out -> D.feed_string st (F.msg_key out)
      | None -> ());
      D.feed_char st '|';
      D.feed_string st fate_str.(p);
      D.feed_string st churn_fate_str.(p);
      if F.stable node = Some p then D.feed_string st "|S";
      F.view_extra st node p;
      List.iter
        (fun (a, sent, mk) ->
          D.feed_string st "|i:";
          D.feed_int st sent;
          D.feed_char st '@';
          D.feed_int st a;
          D.feed_char st '=';
          D.feed_string st mk)
        fl

  let key s =
    let core = F.core s.node in
    for p = 0 to n - 1 do
      D.refresh_stream s.digest ~slot:p ~version:(Core.version core p)
        (fun st -> write_view st s.node p)
    done;
    D.key s.digest ~round:(Core.round core) ~global:(F.global s.node)

  (* Reference key, bypassing the per-slot version cache — the
     differential test pins [key = key_full] along sampled walks. *)
  let key_full s =
    let render p =
      let b = Buffer.create 64 in
      write_view (D.text b) s.node p;
      Buffer.contents b
    in
    D.full_key
      ~round:(Core.round (F.core s.node))
      ~global:(F.global s.node) ~views:(List.init n render)

  let terminal s = F.terminal s.node
  let pending s = F.pending s.node
  let snapshot s = F.snapshot s.node
end

let make (module F : FAMILY) = (module Make (F) : Explore.SYSTEM)
let make_probe (module F : FAMILY) = (module Make (F) : Explore.SYSTEM_DEBUG)
