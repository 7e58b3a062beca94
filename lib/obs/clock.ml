let now_ns () = Monotonic_clock.now ()
let since_ns t0 = Int64.sub (now_ns ()) t0
let ns_to_us ns = Int64.to_float ns /. 1e3
let ns_to_s ns = Int64.to_float ns /. 1e9
