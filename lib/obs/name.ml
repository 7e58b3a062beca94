(* The one name of each fact that more than one backend counts
   (DESIGN.md §7): counters but the gauge [rounds] and the histograms
   [msg_size], [mailbox_pending], [*_us] and [ws_add_latency_rounds]. A
   backend registers only the facts it counts, so it prints no zero row
   for a fact it never sees. *)

let broadcasts = "run.broadcasts"
let deliveries = "run.deliveries"  (* point-to-point, self excluded *)
let timely_deliveries = "run.timely_deliveries"
let decisions = "run.decisions"
let crashes = "run.crashes"
let rounds = "run.rounds"
let msg_size = "run.msg_size"
let leader_changes = "run.leader_changes"
let mailbox_pending = "run.mailbox_pending"
let compute_us = "phase.compute_us"
let deliver_us = "phase.deliver_us"
let ws_adds = "ws.adds"
let ws_gets = "ws.gets"
let ws_add_latency_rounds = "ws.add_latency_rounds"
