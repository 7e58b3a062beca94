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
  val init : unit -> node
  val step : node -> G.Adversary.plan -> node * G.Checker.violation list * int list
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
        match G.Crash.event F.crash p with
        | None -> ""
        | Some { round; broadcast; _ } ->
          Printf.sprintf "c%d%c" round
            (match broadcast with
            | G.Crash.Silent -> 's'
            | G.Crash.Broadcast_all -> 'a'
            | G.Crash.Broadcast_subset -> 'b'))

  let churn_fate_str =
    Array.init n (fun p ->
        match G.Churn.event F.churn p with
        | None -> ""
        | Some { leave; rejoin; _ } ->
          Printf.sprintf "l%d%s" leave
            (match rejoin with Some r -> Printf.sprintf "j%d" r | None -> ""))

  (* An Away process restarts from its own input if it rejoins. *)
  let rejoins =
    Array.init n (fun p ->
        match G.Churn.event F.churn p with
        | Some { rejoin = Some _; _ } -> true
        | Some { rejoin = None; _ } | None -> false)

  (* One process's transition in one step. A process has no identity and
     receives a set of messages, so its next view is a function of its
     view, the round, what it receives, whether it is the stable source
     after the plan, whether it crashes at the end of the round (a
     crasher that decides in its crash round halts first, and its view
     [H] does not show the crash) and, for a process that will rejoin,
     its input (its Live view does not show it, its Away view does). The
     view enters as its digest pair — the one hashed part, which the
     canonical key already trusts; the rest compares exactly. *)
  type transition = {
    round : int;
    h1 : int;
    h2 : int;
    flags : int;  (** 1: stable source after the plan; 2: crashing. *)
    input : int option;  (** The input of a process that will rejoin. *)
    recv : (int * int) list;
        (** Sorted [(arrival - round, message id)], self-delivery
            included; ids intern [msg_key] per exploration. *)
  }

  module Transitions = Hashtbl.Make (struct
    type t = transition

    let equal a b =
      a.h1 = b.h1 && a.h2 = b.h2 && a.round = b.round && a.flags = b.flags
      && Option.equal Int.equal a.input b.input
      && List.equal (fun (r1, m1) (r2, m2) -> r1 = r2 && m1 = m2) a.recv b.recv

    let hash t =
      List.fold_left
        (fun h (r, m) -> (h * 31) + (m * 4) + r)
        (t.h1 + (t.round * 7919) + t.flags)
        t.recv
  end)

  (* What a transition leads to: the post-view digest pair, or [Loud]
     when the process fed the family's judge in that step. *)
  type outcome = Quiet of int * int | Loud

  (* The receiver side of one shared choice list's deliveries, from dry
     runs of the dispatch: per plan (in list order) and receiver, the
     index of a pattern — the sorted [(sender, arrival - round)] pairs it
     receives, and whether it is the stable source after the plan. *)
  type table = {
    patterns : ((int * int) list * bool) array array;  (** receiver -> index -> pattern *)
    by_plan : int array array;  (** plan -> receiver -> index *)
  }

  (* A table is exact for every node that shares the choice list and the
     two other inputs of the dispatch: the live processes (the senders
     and eligible receivers) and the stable source before the plan. *)
  module Tables = Hashtbl.Make (struct
    type t = G.Plan_enum.choice list * int list * int option

    let equal (c1, l1, s1) (c2, l2, s2) = c1 == c2 && l1 = l2 && s1 = s2
    let hash (c, l, s) = Hashtbl.hash (Hashtbl.hash c, l, s)
  end)

  (* Caches of one exploration, made by [init] and shared along the whole
     search: its states repeat enumeration signatures and process
     transitions constantly. *)
  type caches = {
    plans : G.Plan_enum.memo;
    tables : table Tables.t;
    msg_ids : (string, int) Hashtbl.t;
    transitions : outcome Transitions.t;
  }

  type sys = {
    node : F.node;  (** The system after the compute phase of iteration [round]. *)
    digest : D.t;
    caches : caches;
  }

  let init () =
    {
      node = F.init ();
      digest = D.create ~n;
      caches =
        {
          plans = G.Plan_enum.memo ();
          tables = Tables.create 16;
          msg_ids = Hashtbl.create 16;
          transitions = Transitions.create 64;
        };
    }

  let step s plan =
    let node, vs, loud = F.step s.node plan in
    ({ s with node; digest = D.copy s.digest }, vs, loud)

  let apply s plan =
    let s', _, _ = step s plan in
    s'

  (* An armed (inadmissible) plan's marker: the checker's findings on the
     one-round trace of a dry run of its dispatch — what the replayed trace
     reports for that round. *)
  let armed_violations core (c : G.Adversary.ctx) (plan : G.Adversary.plan) =
    let stats, _ = Core.preview core ~plan ~crash_rng:(Anon_kernel.Rng.make 0) in
    let info =
      {
        G.Trace.round = c.round;
        senders = List.map fst stats.groups;
        crashing = Core.crashing_pids core;
        source = plan.source;
        timely = stats.timely;
        obligated = c.obligated;
        decided = [];
        msg_sizes = [];
      }
    in
    G.Checker.check_env
      {
        n;
        inputs = Array.init n (Core.input core);
        crash = F.crash;
        churn = F.churn;
        env = F.env;
        rounds = [ info ];
      }

  (* The one process-view writer: fed into the digest streams behind
     [key], and into text for the reference [key_full]. *)
  let write_view st node p =
    let core = F.core node in
    match Core.fate core p with
    | G.Step_core.Crashed -> D.feed_char st 'X'
    | G.Step_core.Halted -> D.feed_char st 'H'
    | G.Step_core.Away ->
      D.feed_string st "A|";
      D.feed_string st churn_fate_str.(p);
      if rejoins.(p) then begin
        D.feed_char st '|';
        D.feed_int st (Core.input core p)
      end
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
      if Core.stable core = Some p then D.feed_string st "|S";
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

  let refresh s =
    let core = F.core s.node in
    for p = 0 to n - 1 do
      D.refresh_stream s.digest ~slot:p ~version:(Core.version core p)
        (fun st -> write_view st s.node p)
    done

  let key s =
    refresh s;
    D.key s.digest ~round:(Core.round (F.core s.node)) ~global:(F.global s.node)

  let compare_pairs (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

  let table caches core choices =
    let live =
      List.filter (fun p -> Core.fate core p = G.Step_core.Live) (List.init n Fun.id)
    in
    let signature = (choices, live, Core.stable core) in
    match Tables.find_opt caches.tables signature with
    | Some t -> t
    | None ->
      let k = Core.round core in
      let index = Array.init n (fun _ -> Hashtbl.create 8) in
      let rev_patterns = Array.make n [] in
      let intern p pattern =
        match Hashtbl.find_opt index.(p) pattern with
        | Some i -> i
        | None ->
          let i = Hashtbl.length index.(p) in
          Hashtbl.add index.(p) pattern i;
          rev_patterns.(p) <- pattern :: rev_patterns.(p);
          i
      in
      let row (c : G.Plan_enum.choice) =
        (* The crash RNG [F.step] hands to [deliver]. *)
        let stats, stable =
          Core.preview core ~plan:c.plan ~crash_rng:(Anon_kernel.Rng.make 0)
        in
        (* Each sender's groups scattered to their receivers, its
           self-delivery timely. *)
        let recv = Array.make n [] in
        List.iter
          (fun (sender, gs) ->
            recv.(sender) <- (sender, 0) :: recv.(sender);
            List.iter
              (fun (g : G.Adversary.group) ->
                Anon_kernel.Pidset.iter
                  (fun q -> if q <> sender then recv.(q) <- (sender, g.arrival - k) :: recv.(q))
                  g.receivers)
              gs)
          stats.groups;
        Array.init n (fun p -> intern p (List.sort compare_pairs recv.(p), stable = Some p))
      in
      let by_plan = Array.of_list (List.map row choices) in
      let t =
        { patterns = Array.map (fun l -> Array.of_list (List.rev l)) rev_patterns; by_plan }
      in
      Tables.add caches.tables signature t;
      t

  let msg_id caches m =
    let mk = F.msg_key m in
    match Hashtbl.find_opt caches.msg_ids mk with
    | Some i -> i
    | None ->
      let i = Hashtbl.length caches.msg_ids in
      Hashtbl.add caches.msg_ids mk i;
      i

  (* One process's transition under one delivery pattern, within one
     expansion: not looked at yet, or looked up and unknown (the key kept
     to learn it), or known. *)
  type cell = Unseen | Unknown of transition | Known of outcome

  (* Each plan's successor key is predicted from the n process
     transitions when all are known and quiet: the family's judge then
     saw nothing, so the successor commits no violation and keeps the
     parent's global facts, and its key sums the post-view digests.
     Otherwise the plan is stepped, and the successor teaches its n
     transitions. Inadmissible plans are always stepped. *)
  let expand s =
    let core = F.core s.node in
    let c0 = Core.ctx core in
    let pspec =
      {
        G.Plan_enum.env = F.env;
        stable = Core.stable core;
        max_delay = F.max_delay;
        crashing = Core.crashing_pids core;
        include_inadmissible = F.armed;
      }
    in
    let choices = G.Plan_enum.enumerate_memo s.caches.plans pspec c0 in
    (* A state built by [apply] may never have been keyed. *)
    refresh s;
    let k = Core.round core in
    let table = table s.caches core choices in
    let ids =
      Array.init n (fun p ->
          match Core.out core p with Some m -> msg_id s.caches m | None -> -1)
    in
    let transition p i =
      let recv, stable = table.patterns.(p).(i) in
      let h1, h2 = D.slot s.digest p in
      {
        round = k;
        h1;
        h2;
        flags = (if stable then 1 else 0) lor if List.mem p pspec.crashing then 2 else 0;
        input = (if rejoins.(p) then Some (Core.input core p) else None);
        recv =
          List.sort compare_pairs (List.map (fun (sender, rel) -> (rel, ids.(sender))) recv);
      }
    in
    let cells = Array.map (fun pats -> Array.make (Array.length pats) Unseen) table.patterns in
    (* Two patterns may share a transition (equal messages from other
       senders), so an unknown cell asks the memo again. *)
    let resolve p i =
      match cells.(p).(i) with
      | Known _ as c -> c
      | (Unseen | Unknown _) as c ->
        let t = match c with Unknown t -> t | Unseen | Known _ -> transition p i in
        let c =
          match Transitions.find_opt s.caches.transitions t with
          | Some o -> Known o
          | None -> Unknown t
        in
        cells.(p).(i) <- c;
        c
    in
    let global = F.global s.node in
    let predict row =
      let rec go p sum1 sum2 =
        if p = n then Some (D.key_of_sums ~round:(k + 1) ~global sum1 sum2)
        else
          match resolve p row.(p) with
          | Known (Quiet (h1, h2)) -> go (p + 1) (sum1 + h1) (sum2 + h2)
          | Known Loud | Unseen | Unknown _ -> None
      in
      go 0 0 0
    in
    (* A stepped successor still takes the post-view digests of its
       known quiet transitions from the memo, and hashes only the other
       views; it then teaches the unknown ones. *)
    let learn row s' loud =
      let core' = F.core s'.node in
      for p = 0 to n - 1 do
        match resolve p row.(p) with
        | Known (Quiet (h1, h2)) ->
          D.assign s'.digest ~slot:p ~version:(Core.version core' p) h1 h2
        | Known Loud | Unknown _ | Unseen -> ()
      done;
      refresh s';
      for p = 0 to n - 1 do
        match cells.(p).(row.(p)) with
        | Unknown t ->
          let o =
            if List.mem p loud then Loud
            else
              let h1, h2 = D.slot s'.digest p in
              Quiet (h1, h2)
          in
          Transitions.add s.caches.transitions t o;
          cells.(p).(row.(p)) <- Known o
        | Known _ | Unseen -> ()
      done
    in
    List.mapi
      (fun i (c : G.Plan_enum.choice) ->
        let row = table.by_plan.(i) in
        match if c.admissible then predict row else None with
        | Some key -> Explore.Predicted { plan = c.plan; key }
        | None ->
          let s', vs, loud = step s c.plan in
          learn row s' loud;
          let violations =
            if c.admissible then vs else armed_violations core c0 c.plan @ vs
          in
          Explore.Stepped { plan = c.plan; sys = s'; violations })
      choices

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
