open Anon_kernel
module G = Anon_giraf
module S = Anon_consensus.Weak_set_ms
module Judge = G.Checker.Weak_set
module D = Canon.Digest

type spec = {
  n : int;
  crash : G.Crash.t;
  env : G.Env.t;
  max_delay : int;
  armed : bool;
  ops_per_client : int;
}

module Family (Cfg : sig
  val spec : spec
end) =
struct
  module Svc = G.Step_core.Service (S)
  module Core = Svc.Core

  let spec = Cfg.spec
  let n = spec.n

  let () = G.Churn.validate ~where:"Ws_sys.make" ~n ~crash:spec.crash ()

  let crash = spec.crash
  let churn = G.Churn.none ~n
  let env = spec.env
  let max_delay = spec.max_delay
  let armed = spec.armed
  let state_key = S.state_key
  let msg_key = S.msg_key
  let msg_compare = S.msg_compare

  let workload =
    Anon_chaos.Scenario.mc_workload ~n ~ops_per_client:spec.ops_per_client

  type node = { svc : Svc.t; inv : Judge.t }

  let core nd = Svc.core nd.svc

  let init () =
    let svc = Svc.create ~n ~crash ~churn ~env ~workload in
    Svc.begin_round svc;
    ignore (Svc.compute svc : S.msg G.Dispatch.outbound list);
    { svc; inv = Judge.create () }

  (* One transition: round-[k] deliveries per plan and crasher marking
     (shared Step_core/Dispatch semantics), the round-[k] operation phase
     (adds invoked as the phase runs, gets judged after every invocation
     of the phase is recorded), then iteration [k+1]'s compute,
     completing adds whose BLOCK flag cleared; the times are the
     service's clock. Every client that ran a get, invoked an add or
     completed one is a loud pid of the transition. *)
  let step nd (plan : G.Adversary.plan) =
    let svc = Svc.copy nd.svc in
    ignore
      (Core.deliver (Svc.core svc) ~plan ~crash_rng:(Rng.make 0) : G.Dispatch.stats);
    let k = Core.round (Svc.core svc) in
    let inv = ref nd.inv in
    let gets = ref [] in
    let loud = ref [] in
    Svc.ops svc
      ~on_get:(fun ~pid ~result -> gets := (pid, result) :: !gets)
      ~on_add:(fun ~pid ~value ->
        inv := Judge.invoke_add !inv value;
        loud := pid :: !loud);
    let op_time = Svc.op_time k in
    let viols =
      List.concat_map
        (fun (p, result) ->
          Judge.observe_get !inv ~client:p
            ~correct:(G.Crash.is_correct crash p)
            ~invoked_at:op_time ~result)
        (List.rev !gets)
    in
    Svc.begin_round svc;
    ignore
      (Svc.compute svc ~on_add_complete:(fun ~pid ~value ~invoked_round:_ ->
           inv := Judge.complete_add !inv value ~time:(Svc.compute_time (k + 1));
           loud := pid :: !loud)
        : S.msg G.Dispatch.outbound list);
    ({ svc; inv = !inv }, viols, List.map fst !gets @ !loud)

  let write_op st (start, op) =
    D.feed_int st start;
    match op with
    | G.Step_core.Do_get -> D.feed_char st 'G'
    | G.Step_core.Do_add v ->
      D.feed_char st 'A';
      D.feed_int st v
    | G.Step_core.Do_add_with _ -> D.feed_char st 'F'

  let write_script st nd p = List.iter (write_op st) (Svc.script nd.svc p)

  let view_extra st nd p =
    (match Svc.blocked nd.svc p with
    | Some (v, _) ->
      D.feed_string st "|b:";
      D.feed_int st v
    | None -> ());
    D.feed_string st "|w:";
    write_script st nd p

  let write_set st set =
    ignore
      (Value.Set.fold
         (fun v first ->
           if not first then D.feed_char st ',';
           D.feed_int st v;
           false)
         set true
        : bool)

  (* The invoked and the completed add values. *)
  let global st nd =
    D.feed_string st "inv:";
    write_set st (Judge.invoked nd.inv);
    D.feed_string st "/comp:";
    write_set st (Judge.completed_values nd.inv)

  (* The explored workload is finite: once every live client's script is
     drained and no add is blocked, no transition can complete another
     operation, so no future get exists to judge — the branch is closed. *)
  let terminal nd =
    let closed = ref true in
    for p = 0 to n - 1 do
      if
        Core.fate (core nd) p = G.Step_core.Live
        && (Svc.script nd.svc p <> [] || Svc.blocked nd.svc p <> None)
      then closed := false
    done;
    !closed

  let pending nd =
    List.filter
      (fun p -> Core.fate (core nd) p = G.Step_core.Live && Svc.blocked nd.svc p <> None)
      (List.init n Fun.id)

  (* Pid-indexed rendering for the differential test: fate, state key,
     blocked add and remaining script per process, then the invoked /
     completed add sets. *)
  let snapshot nd =
    let core = core nd in
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "r%d\n" (Core.round core));
    for p = 0 to n - 1 do
      match Core.fate core p with
      | G.Step_core.Crashed -> Buffer.add_string b (Printf.sprintf "p%d X\n" p)
      | G.Step_core.Halted | G.Step_core.Away ->
        Buffer.add_string b (Printf.sprintf "p%d ?\n" p)
      | G.Step_core.Live ->
        let sk =
          match Core.state core p with Some st -> S.state_key st | None -> "?"
        in
        Buffer.add_string b (Printf.sprintf "p%d L %s b:" p sk);
        Buffer.add_string b
          (match Svc.blocked nd.svc p with
          | Some (v, _) -> Value.to_string v
          | None -> "-");
        Buffer.add_string b " w:";
        write_script (D.text b) nd p;
        Buffer.add_char b '\n'
    done;
    global (D.text b) nd;
    Buffer.contents b
end

let family spec =
  (module Family (struct
    let spec = spec
  end) : System.FAMILY)

let make spec = System.make (family spec)
let make_probe spec = System.make_probe (family spec)
