open Anon_kernel
module G = Anon_giraf
module Inv = Anon_consensus.Invariants

module type MODEL = sig
  include G.Intf.ALGORITHM

  val state_key : state -> string
  val msg_key : msg -> string
end

type spec = {
  inputs : Value.t list;
  crash : G.Crash.t;
  churn : G.Churn.t;
  env : G.Env.t;
  max_delay : int;
  armed : bool;
}

module Family
    (A : MODEL) (Cfg : sig
      val spec : spec
    end) =
struct
  module Core = G.Step_core.Consensus (A)

  let spec = Cfg.spec
  let crash = spec.crash
  let churn = spec.churn
  let env = spec.env
  let max_delay = spec.max_delay
  let armed = spec.armed
  let state_key = A.state_key
  let msg_key = A.msg_key
  let n = G.Crash.n crash

  let () =
    if List.length spec.inputs <> n then
      invalid_arg "Consensus_sys.make: inputs/crash size mismatch";
    if G.Churn.n churn <> n then
      invalid_arg "Consensus_sys.make: churn/crash size mismatch";
    List.iter
      (fun (ev : G.Churn.event) ->
        if G.Crash.crash_round crash ev.pid <> None then
          invalid_arg
            (Printf.sprintf "Consensus_sys.make: p%d both crashes and churns" ev.pid))
      (G.Churn.events churn)

  let inputs = Array.of_list spec.inputs

  type node = { core : Core.t; inv : Inv.Consensus.t }

  let core nd = nd.core
  let stable nd = Core.stable nd.core

  let init () =
    let core = Core.create ~inputs ~crash ~churn ~env in
    Core.begin_round core;
    (* Iteration 1 is [initialize] everywhere — no process can decide. *)
    ignore (Core.compute core : A.msg G.Dispatch.outbound list);
    {
      core;
      inv =
        Inv.Consensus.create
          ~agreement_exempt:
            (List.map (fun (ev : G.Churn.event) -> ev.pid) (G.Churn.events churn))
          ~inputs:spec.inputs ();
    }

  (* One transition, phase-shifted against the runner's loop: deliver the
     round-[k] messages per [plan] and mark the crashers (Dispatch
     semantics, shared with Runner through Step_core), advance to round
     [k+1] (churn transitions, crash latch), then run iteration [k+1]'s
     compute, feeding decisions to the invariants. The crash RNG is never
     consumed: Plan_enum scripts every crasher's deliveries. *)
  let step nd (plan : G.Adversary.plan) =
    let core = Core.copy nd.core in
    ignore (Core.deliver core ~plan ~crash_rng:(Rng.make 0) : G.Dispatch.stats);
    Core.begin_round core;
    let inv = ref nd.inv in
    let viols = ref [] in
    ignore
      (Core.compute core ~on_decide:(fun ~pid ~round:_ ~value ->
           let inv', vs = Inv.Consensus.observe !inv ~pid ~value in
           inv := inv';
           viols := !viols @ vs)
        : A.msg G.Dispatch.outbound list);
    ({ core; inv = !inv }, !viols)

  let view_extra _ _ _ = ()

  let global nd =
    let decided =
      List.sort_uniq Value.compare (List.map snd (Inv.Consensus.decided nd.inv))
    in
    String.concat "," (List.map Value.to_string decided)

  (* Liveness is owed to correct stayers only (cf. Runner/Checker): a
     churner may rejoin after everyone halted and run alone forever. *)
  let terminal nd = Core.undecided_correct_stayers nd.core = []
  let pending nd = Core.undecided_correct_stayers nd.core

  (* Pid-indexed rendering for the differential test: fate and state key
     per process, then the decisions recorded so far. *)
  let snapshot nd =
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "r%d\n" (Core.round nd.core));
    for p = 0 to n - 1 do
      Buffer.add_string b
        (match Core.fate nd.core p with
        | G.Step_core.Crashed -> Printf.sprintf "p%d X\n" p
        | G.Step_core.Halted -> Printf.sprintf "p%d H\n" p
        | G.Step_core.Away -> Printf.sprintf "p%d A\n" p
        | G.Step_core.Live -> (
          match Core.state nd.core p with
          | Some st -> Printf.sprintf "p%d L %s\n" p (A.state_key st)
          | None -> Printf.sprintf "p%d L ?\n" p))
    done;
    let decided =
      List.sort compare
        (List.map
           (fun (p, v) -> (p, Value.to_string v))
           (Inv.Consensus.decided nd.inv))
    in
    Buffer.add_string b
      ("decided "
      ^ String.concat ";"
          (List.map (fun (p, v) -> Printf.sprintf "p%d=%s" p v) decided));
    Buffer.contents b
end

let family (module A : MODEL) spec =
  (module Family
            (A)
            (struct
              let spec = spec
            end) : System.FAMILY)

let make model spec = System.make (family model spec)
let make_probe model spec = System.make_probe (family model spec)
