(* Blackboard: anonymous processes share observations through a weak-set
   (paper Alg. 4, §5) — the data structure that captures exactly what the
   moving-source environment can implement. Writers add observations and
   block until their value is guaranteed visible everywhere; readers get
   snapshots that always contain every completed add.

   Run with: dune exec examples/blackboard.exe *)

module K = Anon_kernel
module G = Anon_giraf
module C = Anon_consensus
module Blackboard = G.Runner.Ws.Make (C.Weak_set_ms)

let () =
  let n = 6 in
  (* Each process posts two observations early, then keeps reading. *)
  let workload =
    List.init n (fun pid ->
        ( pid,
          [
            (2, G.Runner.Ws.Do_add (100 + pid));
            (8, G.Runner.Ws.Do_add (200 + pid));
            (15, G.Runner.Ws.Do_get);
            (30, G.Runner.Ws.Do_get);
          ] ))
  in
  let crash = G.Crash.none ~n in
  let config =
    {
      G.Runner.Ws.n;
      crash;
      churn = G.Churn.none ~n;
      (* Pure moving source, rotating every round, zero extra links: the
         weakest network in which the weak-set is implementable. *)
      adversary = G.Adversary.ms ~rotation:G.Adversary.Round_robin ();
      horizon = 60;
      seed = 7;
    }
  in
  let outcome = Blackboard.run config ~workload in

  List.iter
    (fun (a : G.Runner.Ws.add_record) ->
      Format.printf "post %d by client %d: round %d -> completed %s@." a.value a.client
        a.invoked_round
        (match a.completed_round with None -> "never" | Some r -> "round " ^ string_of_int r))
    outcome.adds;
  List.iter
    (fun (op : G.Checker.ws_op) ->
      match op with
      | G.Checker.Ws_get g ->
        Format.printf "snapshot by client %d: %a@." g.get_client K.Value.pp_set g.get_result
      | G.Checker.Ws_add _ -> ())
    outcome.ops;

  match G.Checker.check_weak_set ~correct:(G.Crash.correct crash) outcome.ops with
  | [] -> Format.printf "checker: weak-set semantics hold (no lost or phantom values)@."
  | vs -> List.iter (fun v -> Format.printf "checker: %a@." G.Checker.pp_violation v) vs
