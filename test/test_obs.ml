(* Tests for the observability layer: the JSON codec, the metrics
   registry (including snapshot merge), the event sinks, and the recorder
   threaded through a real runner. *)

open Anon_obs
module G = Anon_giraf
module C = Anon_consensus

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Json ------------------------------------------------------------------- *)

let json = Alcotest.testable Json.pp Json.equal

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a \"quoted\"\nline\\slash");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.check json "roundtrip" v v'
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_non_finite () =
  (* nan/inf have no JSON encoding; the printer degrades them to null
     rather than emitting an unparseable token. *)
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_parse_errors () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "tru";
  bad "1 2"

let test_json_unicode_escapes () =
  let parses s expected =
    match Json.of_string s with
    | Ok (Json.String got) -> Alcotest.(check string) s expected got
    | Ok _ -> Alcotest.failf "%S parsed to a non-string" s
    | Error e -> Alcotest.failf "%S: %s" s e
  in
  (* \u escapes decode to UTF-8 bytes, not truncated chars. *)
  parses {|"\u0041"|} "A";
  parses {|"\u00e9"|} "\xc3\xa9" (* e-acute *);
  parses {|"\u00E9"|} "\xc3\xa9" (* upper-case hex digits *);
  parses {|"\u2713"|} "\xe2\x9c\x93" (* check mark *);
  parses {|"\u0000"|} "\x00";
  (* A surrogate pair decodes to one astral code point. *)
  parses {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80" (* U+1F600 *);
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  (* Lone or misordered surrogates are rejected. *)
  bad {|"\ud83d"|};
  bad {|"\ud83d rest"|};
  bad {|"\ude00"|};
  bad {|"\ud83dA"|};
  bad {|"\u12"|};
  bad {|"\u12g4"|}

let test_json_non_ascii_roundtrip () =
  (* Raw UTF-8 passes through the printer untouched and survives the
     parser; escaped input re-prints as the same raw bytes. *)
  List.iter
    (fun s ->
      let v = Json.String s in
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Alcotest.check json ("roundtrip " ^ s) v v'
      | Error e -> Alcotest.failf "%s: %s" s e)
    [ "h\xc3\xa9llo"; "\xe2\x9c\x93 done"; "\xf0\x9f\x98\x80";
      "mixed \xe2\x9c\x93 \xf0\x9f\x98\x80 end" ];
  match Json.of_string {|"caf\u00e9 \u2713 \ud83d\ude00"|} with
  | Ok v ->
    Alcotest.check json "escapes normalize to UTF-8"
      (Json.String "caf\xc3\xa9 \xe2\x9c\x93 \xf0\x9f\x98\x80") v
  | Error e -> Alcotest.failf "parse error: %s" e

(* --- Metrics ---------------------------------------------------------------- *)

let test_metrics_counters_gauges () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter" 5 (Metrics.counter_value c);
  let c' = Metrics.counter r "a.count" in
  Metrics.incr c';
  check_int "same cell" 6 (Metrics.counter_value c);
  let g = Metrics.gauge r "a.gauge" in
  Metrics.set_gauge g 2.5;
  let h = Metrics.histogram r "a.hist_us" in
  Metrics.observe h 1.0;
  Metrics.observe h 3.0;
  let snap = Metrics.snapshot r in
  Alcotest.(check (list (pair string int))) "counters" [ ("a.count", 6) ] snap.counters;
  Alcotest.(check (list (pair string (float 1e-9)))) "gauges"
    [ ("a.gauge", 2.5) ] snap.gauges;
  (match snap.histograms with
  | [ ("a.hist_us", hist) ] ->
    check_int "samples" 2 (Hist.count hist);
    Alcotest.(check (float 1e-9)) "min" 1.0 (Hist.min_value hist);
    Alcotest.(check (float 1e-9)) "max" 3.0 (Hist.max_value hist)
  | _ -> Alcotest.fail "histogram snapshot shape");
  Metrics.reset r;
  let snap = Metrics.snapshot r in
  Alcotest.(check (list (pair string int))) "reset counters"
    [ ("a.count", 0) ] snap.counters;
  Alcotest.(check (list (pair string (float 1e-9)))) "reset gauges" [] snap.gauges

let test_metrics_disabled_noop () =
  let c = Metrics.counter Metrics.disabled "x" in
  Metrics.incr c;
  check_int "no-op counter" 0 (Metrics.counter_value c);
  let h = Metrics.histogram Metrics.disabled "y" in
  (* [time] on a no-op handle must still run the thunk. *)
  check_int "time passthrough" 7 (Metrics.time h (fun () -> 7));
  let snap = Metrics.snapshot Metrics.disabled in
  check_int "empty snapshot" 0 (List.length snap.counters)

let test_metrics_merge () =
  let mk c g hs =
    let r = Metrics.create () in
    Metrics.incr ~by:c (Metrics.counter r "n");
    (match g with
    | Some v -> Metrics.set_gauge (Metrics.gauge r "g") v
    | None -> ());
    List.iter (Metrics.observe (Metrics.histogram r "h")) hs;
    Metrics.snapshot r
  in
  let merged =
    Metrics.merge [ mk 2 (Some 1.0) [ 1.0 ]; mk 3 (Some 3.0) [ 2.0; 4.0 ]; mk 5 None [] ]
  in
  (* Counters sum; gauges average over the runs that set them; histograms
     merge bucket-wise. *)
  Alcotest.(check (list (pair string int))) "counters sum" [ ("n", 10) ] merged.counters;
  Alcotest.(check (list (pair string (float 1e-9)))) "gauges mean"
    [ ("g", 2.0) ] merged.gauges;
  (match merged.histograms with
  | [ ("h", hist) ] ->
    check_int "merged count" 3 (Hist.count hist);
    Alcotest.(check (float 1e-9)) "merged min" 1.0 (Hist.min_value hist);
    Alcotest.(check (float 1e-9)) "merged max" 4.0 (Hist.max_value hist)
  | _ -> Alcotest.fail "merged histogram shape")

let test_metrics_json () =
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter r "c");
  Metrics.observe (Metrics.histogram r "h") 2.0;
  let j = Metrics.to_json (Metrics.snapshot r) in
  let open Json in
  check_bool "counter in json" true
    (Option.bind (member "counters" j) (member "c") = Some (Int 1));
  check_bool "histogram count" true
    (Option.bind (Option.bind (member "histograms" j) (member "h")) (member "count")
    = Some (Int 1))

(* --- Hist ------------------------------------------------------------------- *)

(* Deterministic pseudo-random sample stream (no Random state shared with
   other tests). *)
let lcg_samples ~seed n =
  let state = ref seed in
  List.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      float_of_int (1 + (!state mod 100_000)) /. 10.0)

let test_hist_edge_buckets () =
  let h = Hist.create () in
  (* Non-positive and non-finite samples land in the zero bucket: counted,
     exact min/max still tracked for finite samples. *)
  Hist.observe h 0.0;
  Hist.observe h (-3.0);
  Hist.observe h Float.nan;
  check_int "zero-bucket count" 3 (Hist.count h);
  Alcotest.(check (float 0.0)) "min exact" (-3.0) (Hist.min_value h);
  Alcotest.(check (float 0.0)) "max exact" 0.0 (Hist.max_value h);
  Alcotest.(check (float 0.0)) "p50 of zero bucket is min" (-3.0) (Hist.percentile h 50.0);
  (* Overflow bucket: beyond 2^43 the exact max survives. *)
  let big = Float.ldexp 1.0 50 in
  let o = Hist.create () in
  Hist.observe o big;
  Hist.observe o 1.0;
  Alcotest.(check (float 0.0)) "overflow max exact" big (Hist.max_value o);
  Alcotest.(check (float 0.0)) "p100 hits overflow max" big (Hist.percentile o 100.0);
  (* Tiny positives clamp into the first log bucket but keep the exact min. *)
  let tiny = Hist.create () in
  Hist.observe tiny 1e-30;
  Alcotest.(check (float 0.0)) "tiny min exact" 1e-30 (Hist.min_value tiny);
  (* Empty-histogram errors. *)
  check_bool "empty" true (Hist.is_empty (Hist.create ()));
  (match Hist.percentile (Hist.create ()) 50.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "percentile on empty must raise");
  match Hist.percentile h 101.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "percentile out of range must raise"

let test_hist_bucket_boundaries () =
  (* Exact powers of two sit on bucket boundaries; bucketing must be
     deterministic and quantization bounded by 2^(1/16) - 1 (~4.4%). *)
  let exact = [ 1.0; 2.0; 4.0; 1024.0; 0.5; 3.0; 7.5; 100.0 ] in
  List.iter
    (fun v ->
      let h = Hist.create () in
      Hist.observe h v;
      let p50 = Hist.percentile h 50.0 in
      (* A single sample clamps to its own exact min/max. *)
      Alcotest.(check (float 0.0)) (Printf.sprintf "p50 of singleton %g" v) v p50;
      let m = Hist.mean h in
      Alcotest.(check (float 0.0)) (Printf.sprintf "mean of singleton %g" v) v m)
    exact;
  (* Two samples straddling a boundary: reconstruction stays within the
     quantization bound of the true values. *)
  let h = Hist.create () in
  Hist.observe h 10.0;
  Hist.observe h 1000.0;
  let p95 = Hist.percentile h 95.0 in
  check_bool "p95 within 4.5% of 1000" true
    (Float.abs (p95 -. 1000.0) /. 1000.0 <= 0.045);
  (* Same samples, same buckets: structural equality. *)
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.observe a) (lcg_samples ~seed:3 500);
  List.iter (Hist.observe b) (lcg_samples ~seed:3 500);
  check_bool "deterministic bucketing" true (Hist.equal a b)

let test_hist_merge_laws () =
  let mk seed n =
    let h = Hist.create () in
    List.iter (Hist.observe h) (lcg_samples ~seed n);
    h
  in
  let a = mk 1 400 and b = mk 2 700 and c = mk 3 150 in
  (* Associativity and commutativity, in the strict structural sense. *)
  let left = Hist.merge [ Hist.merge [ a; b ]; c ] in
  let right = Hist.merge [ a; Hist.merge [ b; c ] ] in
  let flat = Hist.merge [ a; b; c ] in
  let perm = Hist.merge [ c; a; b ] in
  check_bool "associative (left = right)" true (Hist.equal left right);
  check_bool "flat = nested" true (Hist.equal flat left);
  check_bool "commutative" true (Hist.equal flat perm);
  check_int "merged count" (400 + 700 + 150) (Hist.count flat);
  (* Identity and empties. *)
  check_bool "merge [] is empty" true (Hist.is_empty (Hist.merge []));
  check_bool "merge with empty is identity" true
    (Hist.equal (Hist.copy a) (Hist.merge [ a; Hist.create () ]));
  (* The merge result is fresh: mutating it leaves inputs alone. *)
  let n_a = Hist.count a in
  Hist.observe flat 1.0;
  check_int "inputs untouched" n_a (Hist.count a)

let test_hist_bounded_million () =
  (* 10^6 observations: storage is the fixed bucket array, and summary
     statistics stay within the documented quantization error. *)
  let h = Hist.create () in
  for i = 1 to 1_000_000 do
    Hist.observe h (float_of_int (((i * 7919) mod 1000) + 1))
  done;
  check_int "count exact" 1_000_000 (Hist.count h);
  check_int "bucket_count fixed" Hist.bucket_count ((44 + 20) * 16 + 2);
  Alcotest.(check (float 0.0)) "min exact" 1.0 (Hist.min_value h);
  Alcotest.(check (float 0.0)) "max exact" 1000.0 (Hist.max_value h);
  (* gcd(7919, 1000) = 1, so the samples are 1..1000 uniform (1000 full
     cycles): true mean 500.5. Allow the 4.4% quantization bound. *)
  let m = Hist.mean h in
  check_bool "mean within quantization bound" true
    (Float.abs (m -. 500.5) /. 500.5 <= 0.045);
  match Hist.summary h with
  | None -> Alcotest.fail "summary of non-empty histogram"
  | Some s ->
    check_int "summary count" 1_000_000 s.count;
    check_bool "summary p50 within bound" true
      (Float.abs (s.p50 -. 500.0) /. 500.0 <= 0.05)

(* --- Events ----------------------------------------------------------------- *)

let event = Alcotest.testable Event.pp Event.equal

let all_events =
  [
    Event.Run_start { algo = "es"; n = 4; seed = 7 };
    Event.Run_end { rounds = 12; decided = true };
    Event.Round_start { round = 3 };
    Event.Round_end { round = 3; senders = 4; delivered = 12; timely = 9 };
    Event.Broadcast { pid = 1; round = 3; size = 5 };
    Event.Deliver { sender = 0; receiver = 2; round = 3; arrival = 4 };
    Event.Decide { pid = 2; round = 5; value = 41 };
    Event.Commit { instance = 4; round = 9; value = 41 };
    Event.Crash { pid = 3; round = 2 };
    Event.Churn { pid = 1; round = 4; rejoin = true };
    Event.Leader { pid = 0; round = 6; leader = false };
    Event.Ws_add { pid = 1; round = 2; value = 10 };
    Event.Ws_add_done { pid = 1; round = 4; value = 10 };
    Event.Ws_get { pid = 2; round = 4; size = 3 };
  ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      match Event.of_json (Event.to_json ev) with
      | Ok ev' -> Alcotest.check event "roundtrip" ev ev'
      | Error e -> Alcotest.failf "decode failed (%s): %s" e (Json.to_string (Event.to_json ev)))
    all_events

(* --- Sinks ------------------------------------------------------------------ *)

(* A handler sink that keeps what it receives, and its reader (oldest
   first). *)
let capture () =
  let got = ref [] in
  (Sink.handler (fun ev -> got := ev :: !got), fun () -> List.rev !got)

let test_sink_null_and_tee () =
  check_bool "null" true (Sink.is_null Sink.null);
  check_bool "tee of nulls" true (Sink.is_null (Sink.tee [ Sink.null; Sink.null ]));
  let a, got_a = capture () and b, got_b = capture () in
  let t = Sink.tee [ a; b ] in
  check_bool "tee live" false (Sink.is_null t);
  Sink.emit t (Event.Crash { pid = 0; round = 1 });
  check_int "both children" 2 (List.length (got_a ()) + List.length (got_b ()))

let test_sink_jsonl_roundtrip () =
  let path = Filename.temp_file "anonc_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let s = Sink.jsonl oc in
      List.iter (Sink.emit s) all_events;
      Sink.flush s;
      close_out oc;
      let ic = open_in path in
      let rec read acc =
        match input_line ic with
        | line -> (
          match Json.of_string line with
          | Error e -> Alcotest.failf "bad JSONL line %S: %s" line e
          | Ok j -> (
            match Event.of_json j with
            | Error e -> Alcotest.failf "bad event %S: %s" line e
            | Ok ev -> read (ev :: acc)))
        | exception End_of_file -> List.rev acc
      in
      let evs = read [] in
      close_in ic;
      Alcotest.(check (list event)) "file roundtrip" all_events evs)

(* The satellite guarantee behind the at_exit hook: flushing a JSONL sink
   at an arbitrary mid-run instant leaves only complete, parseable lines
   on disk — an interrupted live run can't produce a truncated trace. *)
let test_sink_jsonl_midrun_flush () =
  let path = Filename.temp_file "anonc_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let s = Sink.jsonl oc in
      let early = [ Event.Round_start { round = 0 }; Event.Crash { pid = 1; round = 0 } ] in
      List.iter (Sink.emit s) early;
      (* Mid-run: the stream is still open and more events are coming. *)
      Sink.flush s;
      let read_lines () =
        let ic = open_in path in
        let rec go acc =
          match input_line ic with
          | line -> (
            match Json.of_string line with
            | Error e -> Alcotest.failf "invalid JSON line %S: %s" line e
            | Ok j -> (
              match Event.of_json j with
              | Error e -> Alcotest.failf "unparseable event %S: %s" line e
              | Ok ev -> go (ev :: acc)))
          | exception End_of_file ->
            close_in ic;
            List.rev acc
        in
        go []
      in
      Alcotest.(check (list event)) "mid-run flush = valid JSONL prefix" early
        (read_lines ());
      List.iter (Sink.emit s) all_events;
      Sink.close s;
      Sink.close s (* idempotent *);
      Sink.flush s (* no-op after close, must not raise *);
      Alcotest.(check (list event)) "close flushes the rest"
        (early @ all_events) (read_lines ()))

let test_sink_handler () =
  let got = ref [] in
  let s = Sink.handler (fun ev -> got := ev :: !got) in
  check_bool "handler is live" false (Sink.is_null s);
  List.iter (Sink.emit s) all_events;
  Alcotest.(check (list event)) "handler saw every event" all_events (List.rev !got);
  Sink.flush s

(* --- Trace ------------------------------------------------------------------- *)

let trace_events doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing or not a list"

(* Count trace events with a given "ph" in a rendered document. *)
let phase_count doc ph =
  List.length
    (List.filter (fun e -> Json.member "ph" e = Some (Json.String ph)) (trace_events doc))

(* Runs [f] on a Chrome sink streaming into a temp file (passed too),
   closes the sink, and returns [f]'s result, the file's text and the
   document parsed back. *)
let chrome_file f =
  let path = Filename.temp_file "anonc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Trace.chrome (open_out path) in
      let r = f path sink in
      Sink.close sink;
      let text = In_channel.with_open_bin path In_channel.input_all in
      match Json.of_string text with
      | Ok doc -> (r, text, doc)
      | Error e -> Alcotest.failf "trace document does not parse: %s" e)

let test_trace_structure () =
  let seen, got = capture () in
  let (), _, doc =
    chrome_file (fun _ chrome ->
        List.iter (Sink.emit (Sink.tee [ chrome; seen ])) all_events)
  in
  Alcotest.(check (list event)) "tee passes every event in order" all_events (got ());
  check_bool "displayTimeUnit present" true
    (Json.member "displayTimeUnit" doc = Some (Json.String "ms"));
  (* Flow arrows come in send/finish pairs sharing an id. *)
  check_int "flow starts = flow finishes" (phase_count doc "s") (phase_count doc "f");
  check_bool "has metadata records" true (phase_count doc "M" > 0);
  check_bool "has round spans" true (phase_count doc "X" > 0);
  check_bool "has instants" true (phase_count doc "i" > 0)

(* The sink streams: after a mid-run flush the file already holds the
   records of every event emitted so far, and they open the finished
   document's [traceEvents]. *)
let test_trace_midrun_flush () =
  let early =
    [
      Event.Run_start { algo = "es"; n = 2; seed = 1 };
      Event.Round_start { round = 1 };
      Event.Broadcast { pid = 0; round = 1; size = 1 };
      Event.Deliver { sender = 0; receiver = 1; round = 1; arrival = 1 };
    ]
  in
  let prefix, _, doc =
    chrome_file (fun path sink ->
        List.iter (Sink.emit sink) early;
        Sink.flush sink;
        let prefix = In_channel.with_open_bin path In_channel.input_all in
        List.iter (Sink.emit sink) all_events;
        prefix)
  in
  let so_far =
    match Json.of_string (prefix ^ "]}") with
    | Ok j -> trace_events j
    | Error e -> Alcotest.failf "flushed prefix %S is not a document head: %s" prefix e
  in
  check_int "broadcast instant and one flow pair" 3 (List.length so_far);
  Alcotest.(check (list json)) "flushed records open the document" so_far
    (List.filteri (fun i _ -> i < 3) (trace_events doc))

let test_trace_empty () =
  let (), _, doc = chrome_file (fun _ _ -> ()) in
  check_bool "displayTimeUnit present" true
    (Json.member "displayTimeUnit" doc = Some (Json.String "ms"));
  check_int "only the two track names" 2 (List.length (trace_events doc));
  check_int "both metadata" 2 (phase_count doc "M")

let run_es_traced () =
  let module R = G.Runner.Make (C.Es_consensus) in
  chrome_file (fun _ sink ->
      R.run
        ~recorder:(Recorder.create ~sink ())
        (G.Runner.default_config ~horizon:100 ~seed:11
           ~inputs:(List.init 6 (fun i -> i + 1))
           ~crash:(G.Crash.none ~n:6)
           (G.Adversary.es_blocking ~gst:8 ())))

let test_trace_runner_deterministic () =
  (* [chrome_file] has parsed the document back through the codec. *)
  let outcome, text1, doc1 = run_es_traced () in
  let _, text2, _ = run_es_traced () in
  (* Logical timestamps only: a fixed-seed run exports byte-identical
     trace JSON every time. *)
  Alcotest.(check string) "byte-identical across runs" text1 text2;
  (* One decide instant per decision; every delivery is one flow pair. *)
  let instants =
    List.filter
      (fun e ->
        Json.member "ph" e = Some (Json.String "i")
        && Json.member "name" e = Some (Json.String "decide"))
      (trace_events doc1)
  in
  check_int "decide instants" (List.length outcome.decisions) (List.length instants);
  check_int "flow pairs" outcome.deliveries (phase_count doc1 "s")

(* --- Recorder + runner integration ------------------------------------------ *)

let test_recorder_off () =
  check_bool "off is inactive" false (Recorder.active Recorder.off);
  (* Event thunks must not run against the null sink. *)
  Recorder.emit Recorder.off (fun () -> Alcotest.fail "thunk forced on null sink")

let run_es ~recorder =
  let module R = G.Runner.Make (C.Es_consensus) in
  R.run ~recorder
    (G.Runner.default_config ~horizon:100 ~seed:11
       ~inputs:(List.init 6 (fun i -> i + 1))
       ~crash:(G.Crash.none ~n:6)
       (G.Adversary.es_blocking ~gst:8 ()))

(* One metric vocabulary across the backends: a fact that more than one
   backend counts has one name ([Name]), each backend's rows carry
   only its documented prefixes (DESIGN.md §7), and the shared counters
   equal the counts the backend's own outcome reports. *)
let shared_names =
  Name.
    [
      broadcasts; deliveries; timely_deliveries; decisions; crashes; rounds;
      msg_size; leader_changes; mailbox_pending; compute_us; deliver_us; ws_adds;
      ws_gets; ws_add_latency_rounds;
    ]

let retired_names =
  [
    "skew.broadcasts"; "skew.deliveries"; "skew.decisions"; "skew.crashes";
    "skew.msg_size"; "live.decisions"; "live.crashes"; "rsm.decides";
    "rsm.broadcasts"; "rsm.rounds"; "shm.crashes";
  ]

let crashes_in (trace : G.Trace.t) =
  List.fold_left (fun acc (r : G.Trace.round_info) -> acc + List.length r.crashing) 0
    trace.rounds

let senders_in (trace : G.Trace.t) =
  List.fold_left (fun acc (r : G.Trace.round_info) -> acc + List.length r.senders) 0
    trace.rounds

(* Each backend: its label, the prefixes its rows may carry, the shared
   facts it counts, and a run returning the outcome's own counts. *)
let backends =
  let one_crash n pid round =
    G.Crash.of_events ~n [ { G.Crash.pid; round; broadcast = G.Crash.Broadcast_subset } ]
  in
  let module N = Name in
  [
    ( "runner (es)",
      [ "run."; "churn."; "phase."; "kernel." ],
      N.[ broadcasts; deliveries; timely_deliveries; decisions; crashes; rounds;
          msg_size; leader_changes; mailbox_pending; compute_us; deliver_us ],
      fun recorder ->
        let module R = G.Runner.Make (C.Es_consensus) in
        let o =
          R.run ~recorder
            (G.Runner.default_config ~horizon:100 ~seed:11
               ~inputs:(List.init 6 (fun i -> i + 1))
               ~crash:(one_crash 6 5 3)
               (G.Adversary.es_blocking ~gst:8 ()))
        in
        [
          (N.broadcasts, o.messages_sent); (N.deliveries, o.deliveries);
          (N.timely_deliveries, o.timely_deliveries);
          (N.decisions, List.length o.decisions); (N.crashes, crashes_in o.trace);
        ] );
    ( "runner (weak set)",
      [ "run."; "ws."; "churn."; "phase."; "kernel." ],
      N.[ broadcasts; deliveries; timely_deliveries; crashes; rounds; msg_size;
          mailbox_pending; compute_us; deliver_us; ws_adds; ws_gets ],
      fun recorder ->
        let module W = G.Runner.Ws.Make (C.Weak_set_ms) in
        let n = 4 and rng = Anon_kernel.Rng.make 3 in
        let workload =
          G.Runner.Ws.random_workload ~n ~ops_per_client:4 ~max_start:20
            ~value_range:100 rng
        in
        let o =
          W.run ~recorder
            {
              G.Runner.Ws.n;
              crash = one_crash n 3 10;
              churn = G.Churn.none ~n;
              adversary = G.Adversary.ms ();
              horizon = 40;
              seed = 3;
            }
            ~workload
        in
        let ops p = List.length (List.filter p o.ops) in
        [
          (N.broadcasts, o.messages_sent); (N.crashes, crashes_in o.trace);
          (N.ws_gets, ops (function G.Checker.Ws_get _ -> true | _ -> false));
        ] );
    ( "skew runner",
      [ "run."; "phase."; "kernel." ],
      N.[ broadcasts; deliveries; decisions; crashes; msg_size; compute_us ],
      fun recorder ->
        let module S = G.Skew_runner.Make (C.Es_consensus) in
        let o =
          S.run ~recorder
            (G.Skew_runner.default_config ~seed:3
               ~pace:(G.Skew_runner.uniform_pace ~max:3)
               ~delay:(G.Skew_runner.uniform_delay ~max:2)
               ~inputs:(List.init 5 (fun i -> i + 1))
               ~crash:(one_crash 5 1 2) ())
        in
        [
          (N.broadcasts, senders_in o.trace); (N.decisions, List.length o.decisions);
          (N.crashes, crashes_in o.trace);
        ] );
    ( "live runner (virtual clock)",
      [ "run."; "live."; "phase."; "kernel." ],
      N.[ broadcasts; deliveries; decisions; crashes; msg_size; compute_us ],
      fun recorder ->
        let module L = Anon_live.Runner.Make (C.Es_consensus) in
        let o =
          L.run ~recorder ~clock:Anon_live.Runner.Virtual
            (Anon_live.Runner.default_config ~seed:9
               ~inputs:(List.init 5 (fun i -> i + 1))
               ~crash:(one_crash 5 2 2) ())
        in
        let crashed =
          Array.fold_left
            (fun acc (p : Anon_live.Runner.process_report) ->
              if p.stop = Anon_live.Runner.Crashed then acc + 1 else acc)
            0 o.processes
        in
        [
          (N.broadcasts, senders_in (Lazy.force o.trace));
          (N.decisions, List.length o.decisions); (N.crashes, crashed);
        ] );
    ( "rsm",
      [ "run."; "rsm." ],
      N.[ broadcasts; decisions; rounds ],
      fun recorder ->
        let module M = Anon_rsm.Rsm.Make (C.Es_consensus) in
        let w =
          Anon_rsm.Workload.make ~value_range:8 ~proposals:6 ~rate:2. ~seed:1 ()
        in
        let o =
          M.run ~recorder
            {
              Anon_rsm.Rsm.n = 3;
              window = 2;
              batch = 1;
              horizon = 400;
              seed = 42;
              crash = G.Crash.none ~n:3;
              churn = G.Churn.none ~n:3;
              adversary = (fun _ -> G.Adversary.es ~gst:4 ());
            }
            ~proposals:(Anon_rsm.Workload.shard_proposals w 0)
        in
        let decisions =
          List.fold_left
            (fun acc (ir : Anon_rsm.Rsm.instance_result) -> acc + List.length ir.decisions)
            0 o.instances
        in
        [ (N.broadcasts, o.broadcasts); (N.decisions, decisions) ] );
  ]

let test_runner_metrics_match_outcome () =
  List.iter
    (fun (label, prefixes, shared, run) ->
      let registry = Metrics.create () in
      let counts = run (Recorder.create ~metrics:registry ()) in
      let snap = Metrics.snapshot registry in
      let names =
        List.map fst snap.counters @ List.map fst snap.gauges
        @ List.map fst snap.histograms
      in
      let has_prefix name p = String.starts_with ~prefix:p name in
      List.iter
        (fun name ->
          if not (List.exists (has_prefix name) prefixes) then
            Alcotest.failf "%s: row %s outside %s" label name (String.concat " " prefixes);
          if List.mem name retired_names then
            Alcotest.failf "%s: row %s has a retired name" label name;
          if (has_prefix name "run." || has_prefix name "ws.")
             && not (List.mem name shared_names)
          then Alcotest.failf "%s: row %s is not a shared name" label name)
        names;
      List.iter
        (fun name ->
          if not (List.mem name names) then
            Alcotest.failf "%s: shared fact %s not recorded" label name)
        shared;
      List.iter
        (fun (name, expected) ->
          check_int (label ^ " " ^ name) expected
            (Option.value ~default:(-1) (List.assoc_opt name snap.counters)))
        counts)
    backends

(* The weak set runs the consensus round loop: it gains one [round_start]
   and one [round_end] per round and a [broadcast] per sender, and every
   other event is the one its own loop emitted before the two were
   folded, in the same order — pinned by the digest of [anonc weakset -n
   4]'s JSONL trace without those three events. *)
let test_weak_set_event_stream () =
  let n = 4 and horizon = 120 and seed = 42 in
  let rng = Anon_kernel.Rng.make seed in
  let crash = G.Crash.random ~n ~failures:0 ~max_round:horizon rng in
  let workload =
    G.Runner.Ws.random_workload ~n ~ops_per_client:6 ~max_start:(horizon / 2)
      ~value_range:10_000 rng
  in
  let module W = G.Runner.Ws.Make (C.Weak_set_ms) in
  let sink, got = capture () in
  let o =
    W.run
      ~recorder:(Recorder.create ~sink ())
      { G.Runner.Ws.n; crash; churn = G.Churn.none ~n; adversary = G.Adversary.ms (); horizon; seed }
      ~workload
  in
  let evs = got () in
  let bounds =
    List.filter_map
      (function
        | Event.Round_start { round } -> Some (round, true)
        | Event.Round_end { round; _ } -> Some (round, false)
        | _ -> None)
      evs
  in
  Alcotest.(check (list (pair int bool)))
    "one round_start then one round_end per round"
    (List.concat (List.init horizon (fun i -> [ (i + 1, true); (i + 1, false) ])))
    bounds;
  check_int "a broadcast per sender" o.messages_sent
    (List.length (List.filter (function Event.Broadcast _ -> true | _ -> false) evs));
  (* A sender's deliver events of a round in receiver order: dispatch
     emits them group by group, so their order within one sender is not
     part of the stream's meaning. *)
  let rec by_receiver run = function
    | (Event.Deliver d as ev) :: tl
      when match run with
           | Event.Deliver d' :: _ -> d'.sender = d.sender && d'.round = d.round
           | _ -> true ->
      by_receiver (ev :: run) tl
    | rest ->
      let key = function Event.Deliver d -> (d.receiver, d.arrival) | _ -> (0, 0) in
      List.stable_sort (fun a b -> compare (key a) (key b)) (List.rev run)
      @
      match rest with
      | [] -> []
      | Event.Deliver _ :: _ -> by_receiver [] rest
      | ev :: tl -> ev :: by_receiver [] tl
  in
  let others =
    List.filter_map
      (function
        | Event.Round_start _ | Event.Round_end _ | Event.Broadcast _ -> None
        | ev -> Some (Json.to_string (Event.to_json ev)))
      (by_receiver [] evs)
  in
  check_int "other events" 1479 (List.length others);
  Alcotest.(check string)
    "other events as before" "c184528541b65ff9f9872624bc87d242"
    (Digest.to_hex (Digest.string (String.concat "\n" others)))

(* An ES run with one crasher of each broadcast kind, under noise: each
   round's events are its [round_start], its [decide]s, its [deliver]s
   (sender by sender in dispatch order, group by group, each group's
   receivers ascending), its [crash]es, its [broadcast]s and its
   [round_end]. The stream, as JSONL lines, is pinned by its digest. *)
let test_runner_crash_event_order () =
  let n = 6 in
  let crashes =
    [
      { G.Crash.pid = 1; round = 2; broadcast = G.Crash.Silent };
      { pid = 3; round = 3; broadcast = G.Crash.Broadcast_all };
      { pid = 4; round = 4; broadcast = G.Crash.Broadcast_subset };
    ]
  in
  let module R = G.Runner.Make (C.Es_consensus) in
  let sink, got = capture () in
  let outcome =
    R.run
      ~recorder:(Recorder.create ~sink ())
      (G.Runner.default_config ~horizon:100 ~seed:5
         ~inputs:(List.init n (fun i -> i + 1))
         ~crash:(G.Crash.of_events ~n crashes)
         (G.Adversary.es ~gst:8 ~noise:0.3 ()))
  in
  let evs = got () in
  let rank = function
    | Event.Round_start _ -> 0
    | Event.Decide _ -> 1
    | Event.Deliver _ -> 2
    | Event.Crash _ -> 3
    | Event.Broadcast _ -> 4
    | Event.Round_end _ -> 5
    | ev -> Alcotest.failf "unexpected event %a" Event.pp ev
  in
  (* Each sender's deliveries in one run, after those of lower senders;
     each arrival (a built-in plan's group) in one stretch of it, its
     receivers ascending. *)
  let rec check_delivers prev = function
    | Event.Deliver d :: tl ->
      (match prev with
      | Some (Event.Deliver p) ->
        check_bool "senders in dispatch order" true (p.sender <= d.sender);
        if p.sender = d.sender && p.arrival = d.arrival then
          check_bool "a group's receivers ascending" true (p.receiver < d.receiver)
        else if p.sender = d.sender then
          check_bool "one stretch per group" false
            (List.exists
               (function
                 | Event.Deliver e -> e.sender = d.sender && e.arrival = p.arrival
                 | _ -> false)
               tl)
      | _ -> ());
      check_delivers (Some (Event.Deliver d)) tl
    | _ :: tl -> check_delivers prev tl
    | [] -> ()
  in
  let rec rounds k = function
    | [ Event.Run_end _ ] -> check_int "rounds" outcome.rounds_executed (k - 1)
    | (Event.Round_start { round } :: _) as evs ->
      check_int "round_start" k round;
      let rec split acc = function
        | (Event.Round_end _ as ev) :: tl -> (List.rev (ev :: acc), tl)
        | ev :: tl -> split (ev :: acc) tl
        | [] -> Alcotest.fail "round without round_end"
      in
      let this, rest = split [] evs in
      let ranks = List.map rank this in
      check_bool "round's events in order" true (List.sort compare ranks = ranks);
      check_int "one round_end" 1 (List.length (List.filter (( = ) 5) ranks));
      List.iter
        (function
          | Event.Decide { round; _ } -> check_int "decide round" (k - 1) round
          | Event.Deliver { round; _ } | Event.Crash { round; _ } | Event.Broadcast { round; _ }
          | Event.Round_end { round; _ } ->
            check_int "event round" k round
          | _ -> ())
        this;
      check_delivers None this;
      rounds (k + 1) rest
    | _ -> Alcotest.fail "round_start or run_end expected"
  in
  (match evs with
  | Event.Run_start _ :: tl -> rounds 1 tl
  | _ -> Alcotest.fail "run_start expected");
  check_int "deliver events" outcome.deliveries
    (List.length (List.filter (function Event.Deliver _ -> true | _ -> false) evs));
  Alcotest.(check (list (pair int int)))
    "crash events"
    (List.map (fun (ev : G.Crash.event) -> (ev.pid, ev.round)) crashes)
    (List.filter_map (function Event.Crash { pid; round } -> Some (pid, round) | _ -> None) evs);
  let lines = List.map (fun ev -> Json.to_string (Event.to_json ev)) evs in
  check_int "events" 156 (List.length lines);
  Alcotest.(check string)
    "stream" "4c6b765607c4241b15f51ede42094e88"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_runner_event_stream () =
  let sink, got = capture () in
  let recorder = Recorder.create ~sink () in
  let outcome = run_es ~recorder in
  let evs = got () in
  let count p = List.length (List.filter p evs) in
  check_int "one run_start" 1
    (count (function Event.Run_start _ -> true | _ -> false));
  check_int "one run_end" 1 (count (function Event.Run_end _ -> true | _ -> false));
  check_int "decide events" (List.length outcome.decisions)
    (count (function Event.Decide _ -> true | _ -> false));
  check_int "deliver events" outcome.deliveries
    (count (function Event.Deliver _ -> true | _ -> false));
  check_int "broadcast events" outcome.messages_sent
    (count (function Event.Broadcast _ -> true | _ -> false));
  (* Every decide event must match a decision in the outcome. *)
  List.iter
    (function
      | Event.Decide { pid; round; value } ->
        check_bool "decision recorded" true
          (List.mem (pid, round, value) outcome.decisions)
      | _ -> ())
    evs

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "non-finite" `Quick test_json_non_finite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "non-ascii roundtrip" `Quick
            test_json_non_ascii_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters/gauges/histograms" `Quick
            test_metrics_counters_gauges;
          Alcotest.test_case "disabled no-op" `Quick test_metrics_disabled_noop;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "to_json" `Quick test_metrics_json;
        ] );
      ( "hist",
        [
          Alcotest.test_case "edge buckets" `Quick test_hist_edge_buckets;
          Alcotest.test_case "bucket boundaries" `Quick test_hist_bucket_boundaries;
          Alcotest.test_case "merge laws" `Quick test_hist_merge_laws;
          Alcotest.test_case "bounded at 10^6" `Quick test_hist_bounded_million;
        ] );
      ( "events",
        [ Alcotest.test_case "json roundtrip" `Quick test_event_roundtrip ] );
      ( "sinks",
        [
          Alcotest.test_case "null and tee" `Quick test_sink_null_and_tee;
          Alcotest.test_case "jsonl roundtrip" `Quick test_sink_jsonl_roundtrip;
          Alcotest.test_case "jsonl mid-run flush" `Quick
            test_sink_jsonl_midrun_flush;
          Alcotest.test_case "handler" `Quick test_sink_handler;
        ] );
      ( "trace",
        [
          Alcotest.test_case "structure" `Quick test_trace_structure;
          Alcotest.test_case "runner deterministic" `Quick
            test_trace_runner_deterministic;
          Alcotest.test_case "mid-run flush" `Quick test_trace_midrun_flush;
          Alcotest.test_case "empty run" `Quick test_trace_empty;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "off" `Quick test_recorder_off;
          Alcotest.test_case "runner metrics" `Quick test_runner_metrics_match_outcome;
          Alcotest.test_case "runner events" `Quick test_runner_event_stream;
          Alcotest.test_case "weak-set events" `Quick test_weak_set_event_stream;
          Alcotest.test_case "runner events with crashers" `Quick
            test_runner_crash_event_order;
        ] );
    ]
