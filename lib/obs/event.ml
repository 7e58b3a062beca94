type t =
  | Run_start of { algo : string; n : int; seed : int }
  | Run_end of { rounds : int; decided : bool }
  | Round_start of { round : int }
  | Round_end of { round : int; senders : int; delivered : int; timely : int }
  | Broadcast of { pid : int; round : int; size : int }
  | Deliver of { sender : int; receiver : int; round : int; arrival : int }
  | Decide of { pid : int; round : int; value : int }
  | Commit of { instance : int; round : int; value : int }
  | Crash of { pid : int; round : int }
  | Churn of { pid : int; round : int; rejoin : bool }
  | Leader of { pid : int; round : int; leader : bool }
  | Ws_add of { pid : int; round : int; value : int }
  | Ws_add_done of { pid : int; round : int; value : int }
  | Ws_get of { pid : int; round : int; size : int }

let to_json ev =
  let obj tag fields = Json.Obj (("ev", Json.String tag) :: fields) in
  let int k v = (k, Json.Int v) in
  match ev with
  | Run_start { algo; n; seed } ->
    obj "run_start" [ ("algo", Json.String algo); int "n" n; int "seed" seed ]
  | Run_end { rounds; decided } ->
    obj "run_end" [ int "rounds" rounds; ("decided", Json.Bool decided) ]
  | Round_start { round } -> obj "round_start" [ int "round" round ]
  | Round_end { round; senders; delivered; timely } ->
    obj "round_end"
      [ int "round" round; int "senders" senders; int "delivered" delivered;
        int "timely" timely ]
  | Broadcast { pid; round; size } ->
    obj "broadcast" [ int "pid" pid; int "round" round; int "size" size ]
  | Deliver { sender; receiver; round; arrival } ->
    obj "deliver"
      [ int "sender" sender; int "receiver" receiver; int "round" round;
        int "arrival" arrival ]
  | Decide { pid; round; value } ->
    obj "decide" [ int "pid" pid; int "round" round; int "value" value ]
  | Commit { instance; round; value } ->
    obj "commit" [ int "instance" instance; int "round" round; int "value" value ]
  | Crash { pid; round } -> obj "crash" [ int "pid" pid; int "round" round ]
  | Churn { pid; round; rejoin } ->
    obj "churn" [ int "pid" pid; int "round" round; ("rejoin", Json.Bool rejoin) ]
  | Leader { pid; round; leader } ->
    obj "leader" [ int "pid" pid; int "round" round; ("leader", Json.Bool leader) ]
  | Ws_add { pid; round; value } ->
    obj "ws_add" [ int "pid" pid; int "round" round; int "value" value ]
  | Ws_add_done { pid; round; value } ->
    obj "ws_add_done" [ int "pid" pid; int "round" round; int "value" value ]
  | Ws_get { pid; round; size } ->
    obj "ws_get" [ int "pid" pid; int "round" round; int "size" size ]

let of_json j =
  let ( let* ) o f = match o with Some x -> f x | None -> Error "missing field" in
  let int k = Json.member k j |> Option.map Json.to_int |> Option.join in
  let bool k = Json.member k j |> Option.map Json.to_bool |> Option.join in
  let str k = Json.member k j |> Option.map Json.to_str |> Option.join in
  match str "ev" with
  | None -> Error "missing \"ev\" tag"
  | Some tag -> (
    match tag with
    | "run_start" ->
      let* algo = str "algo" in
      let* n = int "n" in
      let* seed = int "seed" in
      Ok (Run_start { algo; n; seed })
    | "run_end" ->
      let* rounds = int "rounds" in
      let* decided = bool "decided" in
      Ok (Run_end { rounds; decided })
    | "round_start" ->
      let* round = int "round" in
      Ok (Round_start { round })
    | "round_end" ->
      let* round = int "round" in
      let* senders = int "senders" in
      let* delivered = int "delivered" in
      let* timely = int "timely" in
      Ok (Round_end { round; senders; delivered; timely })
    | "broadcast" ->
      let* pid = int "pid" in
      let* round = int "round" in
      let* size = int "size" in
      Ok (Broadcast { pid; round; size })
    | "deliver" ->
      let* sender = int "sender" in
      let* receiver = int "receiver" in
      let* round = int "round" in
      let* arrival = int "arrival" in
      Ok (Deliver { sender; receiver; round; arrival })
    | "decide" ->
      let* pid = int "pid" in
      let* round = int "round" in
      let* value = int "value" in
      Ok (Decide { pid; round; value })
    | "commit" ->
      let* instance = int "instance" in
      let* round = int "round" in
      let* value = int "value" in
      Ok (Commit { instance; round; value })
    | "crash" ->
      let* pid = int "pid" in
      let* round = int "round" in
      Ok (Crash { pid; round })
    | "churn" ->
      let* pid = int "pid" in
      let* round = int "round" in
      let* rejoin = bool "rejoin" in
      Ok (Churn { pid; round; rejoin })
    | "leader" ->
      let* pid = int "pid" in
      let* round = int "round" in
      let* leader = bool "leader" in
      Ok (Leader { pid; round; leader })
    | "ws_add" ->
      let* pid = int "pid" in
      let* round = int "round" in
      let* value = int "value" in
      Ok (Ws_add { pid; round; value })
    | "ws_add_done" ->
      let* pid = int "pid" in
      let* round = int "round" in
      let* value = int "value" in
      Ok (Ws_add_done { pid; round; value })
    | "ws_get" ->
      let* pid = int "pid" in
      let* round = int "round" in
      let* size = int "size" in
      Ok (Ws_get { pid; round; size })
    | tag -> Error ("unknown event tag: " ^ tag))

let equal a b = a = b
let pp ppf ev = Json.pp ppf (to_json ev)
