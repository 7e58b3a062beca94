(* The loopback wire's fault gauntlet. See transport.mli. *)

open Anon_kernel
module Netfault = Anon_chaos.Netfault
module Topology = Anon_giraf.Topology
module Config_error = Anon_giraf.Config_error

type stats = {
  copies_sent : int;
  retransmissions : int;
  duplicated : int;
  delayed : int;
  severed : int;
}

type t = {
  n : int;
  faults : Netfault.spec;
  rngs : Rng.t array;  (* one per sender *)
  mutable sent : int;
  mutable retransmitted : int;
  mutable duplicates : int;
  mutable delays : int;
  mutable severs : int;
}

(* Retransmission timing: the first resend fires after [base_rto_s],
   doubling per consecutive loss up to [rto_cap_s]; past [max_attempts]
   losses the copy goes through regardless (the wire keeps its reliable-
   link promise even at drop probability 1). *)
let base_rto_s = 0.01
let rto_cap_s = 0.16
let max_attempts = 12

(* A severed link's copy waits out the graph change: one full delay bound
   (at least [sever_floor_s]), the maximal admissible lateness. *)
let sever_floor_s = 0.05

let ns_of_s s = int_of_float (s *. 1e9)

let create ~n ~faults ~seed () =
  if n < 1 then
    Config_error.fail ~where:"Live.Transport.create"
      (Printf.sprintf "n must be >= 1 (got %d)" n);
  let faults = Netfault.validate ~where:"Live.Transport.create" faults in
  let root = Rng.make seed in
  {
    n;
    faults;
    rngs = Array.init n (fun _ -> Rng.split root);
    sent = 0;
    retransmitted = 0;
    duplicates = 0;
    delays = 0;
    severs = 0;
  }

let send_one t ~now ~src ~round ~dst deliver =
  let rng = t.rngs.(src) in
  let f = t.faults in
  let lag = ref 0. in
  t.sent <- t.sent + 1;
  (match f.Netfault.sever with
  | Some top when not (Topology.edge top ~n:t.n ~round ~src ~dst) ->
    t.severs <- t.severs + 1;
    lag := Float.max f.Netfault.max_delay_s sever_floor_s
  | Some _ | None -> ());
  if f.Netfault.delay > 0. && Rng.chance rng f.Netfault.delay then begin
    t.delays <- t.delays + 1;
    lag := !lag +. Rng.float rng f.Netfault.max_delay_s
  end;
  if f.Netfault.drop > 0. then begin
    let rto = ref base_rto_s in
    let attempts = ref 0 in
    while !attempts < max_attempts && Rng.chance rng f.Netfault.drop do
      incr attempts;
      lag := !lag +. !rto;
      rto := Float.min (!rto *. 2.) rto_cap_s
    done;
    t.retransmitted <- t.retransmitted + !attempts
  end;
  let due = now + ns_of_s !lag in
  deliver ~dst ~due;
  if f.Netfault.duplicate > 0. && Rng.chance rng f.Netfault.duplicate then begin
    t.duplicates <- t.duplicates + 1;
    let echo_lag = Rng.float rng (Float.max f.Netfault.max_delay_s base_rto_s) in
    deliver ~dst ~due:(due + ns_of_s echo_lag)
  end

let send_to t ~now ~src ~round ~dsts deliver =
  List.iter (fun dst -> if dst <> src then send_one t ~now ~src ~round ~dst deliver) dsts

let broadcast t ~now ~src ~round deliver =
  for dst = 0 to t.n - 1 do
    if dst <> src then send_one t ~now ~src ~round ~dst deliver
  done

let stats t =
  {
    copies_sent = t.sent;
    retransmissions = t.retransmitted;
    duplicated = t.duplicates;
    delayed = t.delays;
    severed = t.severs;
  }
