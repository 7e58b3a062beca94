(* spine — one benchmark over four workloads, with end-to-end metrics from
   untraced operations and per-layer metrics from one traced sample.

   Run it from the repository root: BENCHMARK.json there names every
   metric with its unit and bound, and the workloads in run order.

     spine.exe --workload W --seed S --seconds N --trace 0|1 [--out FILE]
       One workload in this process. The last line of standard output is
       {"correct","attempted","failed","metrics"}: the end-to-end metrics
       with --trace 0, the per-layer metrics with --trace 1 (which also
       writes the traced sample's spans to _spine/spans-W.jsonl). --out
       keeps every sample and metric.

     spine.exe [--seed S] [--seconds N] [--label L] [--out FILE]
       Every workload, each in its own process and traced, collected into
       one result set (default _spine/result.json).

     spine.exe agree A.json B.json
       Whether two result sets agree within each end-to-end metric's
       bound; prints the interquartile range of every timing metric.

     spine.exe set-up W S
       One set-up of workload W at seed S: build the inputs and run one
       checked operation. A single-workload run times this process. *)

module J = Anon_obs.Json

let workloads : (string * (module Workload.S)) list =
  [
    ("ess-long", (module Consensus.Ess_long));
    ("es-wide", (module Consensus.Es_wide));
    ("mc-es", (module Model_check));
    ("load-rsm", (module Load_sweep));
  ]

let spec_path = "BENCHMARK.json"
let out_dir = "_spine"
let setup_reps = 11

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("spine: " ^ s); exit 2) fmt
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_json path j =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string j);
      output_char oc '\n')

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* --- BENCHMARK.json ---------------------------------------------------------- *)

type metric = { name : string; unit : string; bound : float }

type spec = {
  end_to_end : metric list;
  per_layer : metric list;
  names : string list;
  run_seconds : int;
}

let number = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let load_spec () =
  let j =
    match J.of_string (read_file spec_path) with
    | Ok j -> j
    | Error e -> die "%s: %s" spec_path e
    | exception Sys_error e -> die "%s" e
  in
  let list key =
    match J.member key j with
    | Some (J.List l) -> l
    | _ -> die "%s: no %S list" spec_path key
  in
  let str key o =
    match Option.bind (J.member key o) J.to_str with
    | Some s -> s
    | None -> die "%s: an entry has no %S" spec_path key
  in
  let metric o =
    {
      name = str "name" o;
      unit = str "unit" o;
      bound = Option.value ~default:0. (number (J.member "bound" o));
    }
  in
  {
    end_to_end = List.map metric (list "end_to_end");
    per_layer = List.map metric (list "per_layer");
    names = List.map (str "name") (list "workloads");
    run_seconds =
      Option.value ~default:10 (Option.bind (J.member "run_seconds" j) J.to_int);
  }

(* --- statistics ---------------------------------------------------------------- *)

let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a non-empty sample. *)
let pct p xs = Anon_kernel.Stats.percentile xs p

(* Interquartile range over the median, with the quartiles Python's
   [statistics.quantiles(xs, n=4)] computes (the exclusive method). *)
let iqr_share xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length a in
  if ld < 2 || median xs = 0. then 0.
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 3 -. q 1) /. median xs

(* --- provenance ------------------------------------------------------------------ *)

let peak_rss_mb () =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  with
  | None -> die "no VmHWM in /proc/self/status"
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* [Some true] when tracked files differ from HEAD; [None] outside a git
   checkout. *)
let dirty () =
  if not (Sys.file_exists ".git") then None
  else
    match
      Unix.open_process_args_in "git"
        [| "git"; "status"; "--porcelain"; "--untracked-files=no" |]
    with
    | exception Unix.Unix_error _ -> None
    | ic -> (
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (out <> "")
      | _ -> None)

let provenance ~label ~jobs =
  [
    ("label", J.String label);
    ("cores", J.Int (Domain.recommended_domain_count ()));
    ("jobs", J.Int jobs);
    ("git_revision", J.String (Anon_harness.Bench_diff.git_revision ()));
    ("dirty", match dirty () with Some b -> J.Bool b | None -> J.Null);
  ]

(* --- one workload ---------------------------------------------------------------- *)

let metrics_json ms =
  J.Obj
    (List.map
       (fun (m, v) -> (m.name, J.Obj [ ("value", J.Float v); ("unit", J.String m.unit) ]))
       ms)

(* The listed metrics with their values. Every end-to-end metric needs a
   value; a layer the workload does not exercise reads 0. A value for an
   unlisted metric is a naming mistake. *)
let select ~what ~required metrics values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun m -> m.name = name) metrics) then
        die "%s metric %S is not in %s" what name spec_path)
    values;
  List.map
    (fun m ->
      match List.assoc_opt m.name values with
      | Some v -> (m, if Float.is_finite v then v else 0.)
      | None when required -> die "no value for %s metric %S" what m.name
      | None -> (m, 0.))
    metrics

let measure spec (module W : Workload.S) ~seed ~seconds ~trace ~label ~out =
  let attempted = ref 0 and failures = ref [] in
  let checked what out =
    incr attempted;
    match W.check out with
    | Ok cost -> Some cost
    | Error e ->
      failures := Printf.sprintf "%s: %s" what e :: !failures;
      None
  in
  (* One operation: the heap collected outside the timed region, then the
     call in a fresh interner scope, as a fresh [anonc] process runs it. *)
  let timed input =
    Gc.full_major ();
    let t0 = Span.now () in
    let out = Anon_exec.Pool.isolate W.run input in
    (out, Span.ms_of_ns (Span.now () - t0))
  in
  (* Set-up as a user of [anonc] meets it: a fresh process that starts,
     builds the inputs and returns one checked operation ([set_up]), timed
     from outside. Work moved into module initialisation or into a first
     call shows here, and would hide in the steady-state operations. The
     first set-up comes before the timed loop; the others are spread over
     it, so that their median does not rest on one noisy second. *)
  let setup_s = ref [] in
  let set_up_once () =
    let t0 = Span.now () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "set-up"; W.name; string_of_int seed |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
    let dt = Span.now () - t0 in
    incr attempted;
    if not ok then
      failures := Printf.sprintf "set-up %d failed" (List.length !setup_s) :: !failures;
    setup_s := (Span.ms_of_ns dt /. 1e3) :: !setup_s
  in
  set_up_once ();
  ignore (checked "warm-up" (Anon_exec.Pool.isolate W.run (W.prepare ~seed)));
  let samples = ref [] and costs = ref [] and reference = ref None in
  let t_start = Span.now () in
  let elapsed_s () = Span.ms_of_ns (Span.now () - t_start) /. 1e3 in
  let setup_due () =
    let k = List.length !setup_s in
    k < setup_reps && elapsed_s () >= float_of_int (k * seconds) /. float_of_int setup_reps
  in
  while !samples = [] || elapsed_s () < float_of_int seconds do
    if setup_due () then set_up_once ();
    let s = seed + List.length !samples in
    let out, ms = timed (W.prepare ~seed:s) in
    Option.iter (fun c -> costs := c :: !costs) (checked (Printf.sprintf "seed %d" s) out);
    if !samples = [] then reference := Some out;
    samples := ms :: !samples
  done;
  while List.length !setup_s < setup_reps do
    set_up_once ()
  done;
  let measured_s = elapsed_s () in
  let setup_s = List.rev !setup_s in
  let samples = List.rev !samples in
  let reference = Option.get !reference in
  (* Interference from other tenants of a shared host only ever adds time,
     and it drifts over minutes: run medians of the same code spread by
     10-35%. The fastest operations of a run track the program's own cost;
     the median and p90 are in the summary and the --out file. *)
  let e2e =
    select ~what:"end-to-end" ~required:true spec.end_to_end
      [
        ("setup_s", median setup_s);
        ("op_ms_p1", pct 1. samples);
        ("logical_cost", median !costs);
        ("peak_rss_mb", peak_rss_mb ());
      ]
  in
  let spans = Filename.concat out_dir ("spans-" ^ W.name ^ ".jsonl") in
  let layers =
    if not trace then None
    else begin
      incr attempted;
      let t = W.traced ~seed ~reference ~reference_ms:(median samples) in
      failures := List.rev_append t.failures !failures;
      ensure_out_dir ();
      Span.write ~path:spans;
      Some (select ~what:"per-layer" ~required:false spec.per_layer t.metrics)
    end
  in
  let failures = List.rev !failures in
  let correct = failures = [] in
  let failed = min !attempted (List.length failures) in
  let provenance = provenance ~label ~jobs:W.jobs in
  (* Human-readable summary first: the result line must come last. *)
  Printf.printf "spine %s: seed %d, %d set-ups, %d operations in %.1f s; %s\n" W.name
    seed setup_reps (List.length samples) measured_s
    (String.concat ", "
       (List.map (fun (k, v) -> k ^ " " ^ J.to_string v) (List.tl provenance)));
  Printf.printf "  %s\n" (W.describe reference);
  Printf.printf "  op_ms p1 %.3f, p50 %.3f, p90 %.3f; IQR %.2f%% of the median; setup_s IQR %.2f%%\n"
    (pct 1. samples) (median samples) (pct 90. samples)
    (100. *. iqr_share samples) (100. *. iqr_share setup_s);
  List.iter
    (fun (m, v) -> Printf.printf "  %-32s %14.4f %s\n" m.name v m.unit)
    (e2e @ Option.value ~default:[] layers);
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) failures;
  if trace then Printf.printf "  spans written to %s\n" spans;
  Option.iter
    (fun path ->
      write_json path
        (J.Obj
           ([
              ("workload", J.String W.name);
              ("seed", J.Int seed);
              ("seconds", J.Int seconds);
              ("trace", J.Bool trace);
            ]
           @ provenance
           @ [
               ("correct", J.Bool correct);
               ("attempted", J.Int !attempted);
               ("failed", J.Int failed);
               ("failures", J.List (List.map (fun f -> J.String f) failures));
               ("summary", J.String (W.describe reference));
               ( "samples",
                 J.Obj
                   [
                     ("op_ms_p1", J.List (List.map (fun x -> J.Float x) samples));
                     ("setup_s", J.List (List.map (fun x -> J.Float x) setup_s));
                   ] );
               ("end_to_end", metrics_json e2e);
               ("per_layer", match layers with Some l -> metrics_json l | None -> J.Null);
             ])))
    out;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int !attempted);
            ("failed", J.Int failed);
            ("metrics", metrics_json (Option.value ~default:e2e layers));
          ]));
  if not correct then exit 1

(* What [measure] times as one set-up, in a process of its own. *)
let set_up (module W : Workload.S) ~seed =
  match W.check (Anon_exec.Pool.isolate W.run (W.prepare ~seed)) with
  | Ok _ -> ()
  | Error e -> die "set-up of %s at seed %d: %s" W.name seed e

(* --- every workload --------------------------------------------------------------- *)

let run_all spec ~seed ~seconds ~label ~out =
  ensure_out_dir ();
  let results =
    List.map
      (fun name ->
        let detail = Filename.concat out_dir (name ^ ".json") in
        if Sys.file_exists detail then Sys.remove detail;
        let args =
          [|
            Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
            "--seconds"; string_of_int seconds; "--trace"; "1"; "--label"; label;
            "--out"; detail;
          |]
        in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr
        in
        let ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
        match J.of_string (read_file detail) with
        | Ok j -> (j, ok)
        | Error e -> die "%s: %s" detail e
        | exception Sys_error e -> die "workload %s wrote no result: %s" name e)
      spec.names
  in
  write_json out
    (J.Obj
       ([ ("schema", J.String "spine/1"); ("seed", J.Int seed); ("seconds", J.Int seconds) ]
       @ provenance ~label ~jobs:Load_sweep.jobs
       @ [ ("workloads", J.List (List.map fst results)) ]));
  Printf.printf "spine: result set written to %s\n" out;
  if not (List.for_all snd results) then exit 1

(* --- agree ------------------------------------------------------------------------ *)

let load_results path =
  match J.of_string (read_file path) with
  | exception Sys_error e -> die "%s" e
  | Error e -> die "%s: %s" path e
  | Ok j -> (
    match J.member "workloads" j with
    | Some (J.List ws) ->
      List.filter_map
        (fun w -> Option.map (fun n -> (n, w)) (Option.bind (J.member "workload" w) J.to_str))
        ws
    | _ -> die "%s: not a spine result set" path)

let value w name =
  number (Option.bind (Option.bind (J.member "end_to_end" w) (J.member name)) (J.member "value"))

let samples w name =
  match Option.bind (J.member "samples" w) (J.member name) with
  | Some (J.List xs) -> Some (List.filter_map (fun x -> number (Some x)) xs)
  | _ -> None

let agree spec a_path b_path =
  let a = load_results a_path and b = load_results b_path in
  let ok = ref true in
  Printf.printf "%-9s %-13s %14s %14s %8s %7s  %s\n" "workload" "metric" "A" "B" "diff"
    "bound" "IQR A / B";
  List.iter
    (fun (wname, wa) ->
      match List.assoc_opt wname b with
      | None ->
        ok := false;
        Printf.printf "%-9s missing from %s\n" wname b_path
      | Some wb ->
        List.iter
          (fun m ->
            match (value wa m.name, value wb m.name) with
            | Some va, Some vb ->
              let diff = Float.abs (vb -. va) /. Float.abs va in
              let agrees = va = vb || diff <= m.bound in
              if not agrees then ok := false;
              let iqr =
                match (samples wa m.name, samples wb m.name) with
                | Some sa, Some sb ->
                  Printf.sprintf "%5.2f%% / %5.2f%%" (100. *. iqr_share sa)
                    (100. *. iqr_share sb)
                | _ -> ""
              in
              Printf.printf "%-9s %-13s %14.4f %14.4f %7.2f%% %6.1f%%  %s%s\n" wname m.name
                va vb (100. *. diff) (100. *. m.bound) iqr
                (if agrees then "" else "  DISAGREE")
            | _ ->
              ok := false;
              Printf.printf "%-9s %-13s missing\n" wname m.name)
          spec.end_to_end)
    a;
  print_endline (if !ok then "agree" else "DISAGREE");
  if not !ok then exit 1

(* --- command line ---------------------------------------------------------------- *)

let () =
  let rec options acc = function
    | [] -> acc
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
      let key = String.sub key 2 (String.length key - 2) in
      if not (List.mem key [ "workload"; "seed"; "seconds"; "trace"; "label"; "out" ])
      then die "unknown option --%s" key;
      options ((key, v) :: acc) rest
    | arg :: _ -> die "unexpected argument %S (usage: bench/spine/spine.ml)" arg
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "agree"; a; b ] -> agree (load_spec ()) a b
  | [ "set-up"; name; seed ] -> (
    match (List.assoc_opt name workloads, int_of_string_opt seed) with
    | Some w, Some seed -> set_up w ~seed
    | _ -> die "set-up wants a workload and an integer seed")
  | args ->
    let o = options [] args in
    let int key default =
      match List.assoc_opt key o with
      | None -> default
      | Some v -> (
        match int_of_string_opt v with
        | Some i -> i
        | None -> die "--%s wants an integer, got %S" key v)
    in
    let spec = load_spec () in
    let seed = int "seed" 42 in
    let seconds = int "seconds" spec.run_seconds in
    if seconds < 1 then die "--seconds must be >= 1";
    let label = Option.value ~default:"" (List.assoc_opt "label" o) in
    let out = List.assoc_opt "out" o in
    (match List.assoc_opt "workload" o with
    | None ->
      run_all spec ~seed ~seconds ~label
        ~out:(Option.value ~default:(Filename.concat out_dir "result.json") out)
    | Some name ->
      let w =
        match List.assoc_opt name workloads with
        | Some w when List.mem name spec.names -> w
        | _ -> die "unknown workload %S (one of: %s)" name (String.concat ", " spec.names)
      in
      let trace =
        match int "trace" 0 with 0 -> false | 1 -> true | _ -> die "--trace is 0 or 1"
      in
      measure spec w ~seed ~seconds ~trace ~label ~out)
