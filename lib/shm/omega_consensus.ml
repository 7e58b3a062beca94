open Anon_kernel
module Checker = Anon_giraf.Checker

type ballot = { mbal : int; bal : int; inp : Value.t option }
type reg = Dec of Value.t option | Bal of ballot

type outcome = {
  decisions : (int * Value.t * int * int) list;
  steps : int;
  undecided : int list;
}

let bal_reg i = 1 + i

let bal_of = function
  | Bal b -> b
  | Dec _ -> invalid_arg "Omega_consensus: decision register where ballot expected"

(* The value to propose at a ballot: the input of the highest accepted
   ballot seen, or the process's own proposal if nobody accepted yet. *)
let choose_input ~own entries =
  let best =
    List.fold_left
      (fun acc e ->
        match e.inp with
        | Some v when e.bal > 0 -> (
          match acc with
          | Some (b, _) when b >= e.bal -> acc
          | Some _ | None -> Some (e.bal, v))
        | Some _ | None -> acc)
      None
      (List.map (fun r -> bal_of r) entries)
  in
  match best with Some (_, v) -> v | None -> own

let consensus_prog ~n ~me ~proposal =
  let open Program in
  (* Local copies of the owned register's fields: only [me] writes it. *)
  let rec main ~bal ~inp ~ballot =
    (* Poll the decision register first. *)
    read 0 (function
      | Dec (Some v) -> return v
      | Dec None | Bal _ ->
        query (fun leader ->
            if leader <> me then main ~bal ~inp ~ballot
            else phase1 ~bal ~inp ~ballot))
  and phase1 ~bal ~inp ~ballot =
    write (bal_reg me) (Bal { mbal = ballot; bal; inp }) (fun () ->
        read_all ~lo:1 ~hi:n (fun entries ->
            if List.exists (fun e -> (bal_of e).mbal > ballot) entries then
              main ~bal ~inp ~ballot:(ballot + n)
            else
              let v = choose_input ~own:proposal entries in
              phase2 ~v ~ballot))
  and phase2 ~v ~ballot =
    write (bal_reg me) (Bal { mbal = ballot; bal = ballot; inp = Some v }) (fun () ->
        read_all ~lo:1 ~hi:n (fun entries ->
            if List.exists (fun e -> (bal_of e).mbal > ballot) entries then
              main ~bal:ballot ~inp:(Some v) ~ballot:(ballot + n)
            else write 0 (Dec (Some v)) (fun () -> return v)))
  in
  main ~bal:0 ~inp:None ~ballot:(me + 1)

let run ~config ~proposals ~oracle =
  let n = config.Scheduler.n in
  if List.length proposals <> n then
    invalid_arg "Omega_consensus.run: proposals size mismatch";
  let registers =
    Array.init (n + 1) (fun i ->
        if i = 0 then Dec None else Bal { mbal = 0; bal = 0; inp = None })
  in
  let proposals_a = Array.of_list proposals in
  let clients ~pid ~op_index =
    if op_index > 0 then None
    else Some (consensus_prog ~n ~me:pid ~proposal:proposals_a.(pid))
  in
  let out = Scheduler.run ~config ~registers ~oracle ~clients () in
  let decisions =
    List.map
      (fun (c : Value.t Scheduler.completion) -> (c.pid, c.result, c.invoked, c.completed))
      out.completions
  in
  { decisions; steps = out.steps; undecided = out.pending }

let stabilizing_oracle ~n ~stabilize_at ~leader ~seed ~pid ~step =
  if step >= stabilize_at then leader
  else
    (* Deterministic pseudo-random pre-stabilization hints. *)
    let h = Int64.to_int (Rng.bits64 (Rng.make (seed + (step * 8191) + pid))) in
    abs h mod n

let check ~proposals (out : outcome) =
  Checker.check_decisions ~inputs:proposals
    (List.map (fun (pid, v, _, decided) -> (pid, decided, v)) out.decisions)
