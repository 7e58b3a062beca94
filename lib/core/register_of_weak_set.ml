open Anon_kernel
module Giraf = Anon_giraf

let value_capacity = 1 lsl 20

let encode ~value ~rank =
  if value < 0 || value >= value_capacity then
    invalid_arg "Register_of_weak_set.encode: value out of range";
  if rank < 0 then invalid_arg "Register_of_weak_set.encode: negative rank";
  (rank * value_capacity) + value

let decode e = (e mod value_capacity, e / value_capacity)

let read_of_set set =
  let best =
    Value.Set.fold
      (fun e acc ->
        let value, rank = decode e in
        match acc with
        | None -> Some (rank, value)
        | Some (r, v) -> if (rank, value) > (r, v) then Some (rank, value) else acc)
      set None
  in
  Option.map snd best

let rank_of_set = Value.Set.cardinal

type op = Write of Value.t | Read

type record = {
  client : int;
  op : op;
  invoked : int;
  completed : int option;
  result : Value.t option;
  rank : int option;
}

type outcome = {
  records : record list;
  ws_ops : Giraf.Checker.ws_op list;
  trace : Giraf.Trace.t;
}

module Ws_runner = Giraf.Runner.Ws.Make (Weak_set_ms)

let to_service_workload workload =
  List.map
    (fun (pid, script) ->
      let ops =
        List.map
          (fun (start, op) ->
            match op with
            | Read -> (start, Giraf.Runner.Ws.Do_get)
            | Write v ->
              ( start,
                Giraf.Runner.Ws.Do_add_with
                  (fun set -> encode ~value:v ~rank:(rank_of_set set)) ))
          script
      in
      (pid, ops))
    workload

(* Zip each client's register script with its chronological weak-set
   operations (one per register operation: clients are sequential). *)
let records_of_ops workload ops =
  List.concat_map
    (fun (pid, script) ->
      let mine =
        List.filter
          (fun op ->
            match op with
            | Giraf.Checker.Ws_add a -> a.add_client = pid
            | Giraf.Checker.Ws_get g -> g.get_client = pid)
          ops
      in
      let rec zip script ops =
        match script, ops with
        | [], _ | _, [] -> []
        | (_, Read) :: script', Giraf.Checker.Ws_get g :: ops' ->
          {
            client = pid;
            op = Read;
            invoked = g.get_invoked;
            completed = Some g.get_completed;
            result = read_of_set g.get_result;
            rank = None;
          }
          :: zip script' ops'
        | (_, Write v) :: script', Giraf.Checker.Ws_add a :: ops' ->
          let value, rank = decode a.add_value in
          assert (Value.equal value v);
          {
            client = pid;
            op = Write v;
            invoked = a.add_invoked;
            completed = a.add_completed;
            result = None;
            rank = Some rank;
          }
          :: zip script' ops'
        | (_, Read) :: _, Giraf.Checker.Ws_add _ :: _
        | (_, Write _) :: _, Giraf.Checker.Ws_get _ :: _ ->
          assert false (* per-client op order matches script order *)
      in
      zip script mine)
    workload

let run ~crash ~adversary ~horizon ~seed ~workload =
  let config =
    {
      Giraf.Runner.Ws.n = Giraf.Crash.n crash;
      crash;
      churn = Giraf.Churn.none ~n:(Giraf.Crash.n crash);
      adversary;
      horizon;
      seed;
    }
  in
  let svc = Ws_runner.run config ~workload:(to_service_workload workload) in
  { records = records_of_ops workload svc.ops; ws_ops = svc.ops; trace = svc.trace }

let check_regular records =
  let writes =
    List.filter_map
      (fun r ->
        match r.op, r.rank with
        | Write v, Some rank -> Some (v, rank, r.invoked, r.completed)
        | Write _, None | Read, _ -> None)
      records
  in
  let reads =
    List.filter_map
      (fun r ->
        match r.op, r.completed with
        | Read, Some c -> Some (r.client, r.result, r.invoked, c)
        | Read, None | Write _, _ -> None)
      records
  in
  let check_read (client, result, invoked, completed) =
    let prior =
      List.filter
        (fun (_, _, _, wc) -> match wc with Some c -> c < invoked | None -> false)
        writes
    in
    let concurrent =
      List.filter
        (fun (_, _, wi, wc) ->
          wi <= completed && match wc with None -> true | Some c -> c >= invoked)
        writes
    in
    let strongest =
      List.fold_left
        (fun acc (v, rank, _, _) ->
          match acc with
          | None -> Some (rank, v)
          | Some (r, v') -> if (rank, v) > (r, v') then Some (rank, v) else acc)
        None prior
    in
    let allowed =
      (match strongest with None -> [] | Some (_, v) -> [ v ])
      @ List.map (fun (v, _, _, _) -> v) concurrent
    in
    match result with
    | None ->
      if prior = [] then []
      else
        [
          Giraf.Checker.Register_stale_read
            {
              reader = client;
              read_value = -1;
              expected = (match strongest with Some (_, v) -> v | None -> -1);
            };
        ]
    | Some v ->
      if List.exists (Value.equal v) allowed then []
      else
        [
          Giraf.Checker.Register_stale_read
            {
              reader = client;
              read_value = v;
              expected = (match strongest with Some (_, v) -> v | None -> -1);
            };
        ]
  in
  List.concat_map check_read reads
