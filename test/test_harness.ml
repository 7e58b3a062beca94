(* Tests for the experiment harness: tables, batch runs, the registry, and
   regression pins on the cheap experiments' verdict columns. *)

module G = Anon_giraf
module H = Anon_harness

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Table ----------------------------------------------------------------------- *)

let mk_table rows =
  H.Table.make ~id:"X" ~title:"t" ~claim:"c" ~expectation:"e"
    ~headers:[ "a"; "b" ] ~rows

let test_table_ragged () =
  Alcotest.check_raises "ragged row" (Invalid_argument "Table.make: ragged row in X")
    (fun () -> ignore (mk_table [ [ "1" ] ]))

let test_table_render () =
  let t = mk_table [ [ "1"; "2" ] ] in
  let s = Format.asprintf "%a" H.Table.render t in
  check_bool "has id" true (String.length s > 0 && String.contains s 'X')

let test_table_csv () =
  let t = mk_table [ [ "x,y"; "z\"w" ] ] in
  Alcotest.(check string) "escaped csv" "a,b\n\"x,y\",\"z\"\"w\"\n" (H.Table.to_csv t)

(* RFC 4180 round-trip: unescape a single escaped field and recover the
   original. The tiny parser here is the inverse any spreadsheet applies:
   a field starting with '"' ends at the matching quote, with '""'
   unescaping to '"'. *)
let csv_unescape s =
  let len = String.length s in
  if len = 0 || s.[0] <> '"' then s
  else begin
    let buf = Buffer.create len in
    let rec go i =
      if i >= len - 1 then ()
      else if s.[i] = '"' then
        if i + 1 <= len - 1 && s.[i + 1] = '"' then begin
          Buffer.add_char buf '"';
          go (i + 2)
        end
        else () (* closing quote *)
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 1;
    Buffer.contents buf
  end

let test_csv_escape_rfc4180 () =
  let plain = [ "x"; ""; "no specials"; "semi;colon"; "tab\there" ] in
  List.iter
    (fun s ->
      Alcotest.(check string) ("unquoted: " ^ s) s (H.Table.csv_escape s))
    plain;
  let quoted =
    [
      "a,b";
      "say \"hi\"";
      "line1\nline2";
      "cr\rhere";
      "crlf\r\nline";
      "\"";
      ",";
      "all,of\"it\r\n";
    ]
  in
  List.iter
    (fun s ->
      let e = H.Table.csv_escape s in
      check_bool ("quoted: " ^ String.escaped s) true
        (String.length e >= 2 && e.[0] = '"' && e.[String.length e - 1] = '"');
      (* No bare quote or separator survives inside the quoted body
         unescaped: round-tripping recovers the original exactly. *)
      Alcotest.(check string) ("roundtrip: " ^ String.escaped s) s (csv_unescape e))
    quoted;
  List.iter
    (fun s -> Alcotest.(check string) ("identity: " ^ s) s (csv_unescape (H.Table.csv_escape s)))
    plain

let test_table_cells () =
  Alcotest.(check string) "int" "3" (H.Table.cell_int 3);
  Alcotest.(check string) "float" "3.1" (H.Table.cell_float 3.14);
  Alcotest.(check string) "bool" "yes" (H.Table.cell_bool true);
  Alcotest.(check string) "opt none" "-" (H.Table.cell_opt string_of_int None);
  Alcotest.(check string) "opt some" "4" (H.Table.cell_opt string_of_int (Some 4))

(* --- Runs ------------------------------------------------------------------------- *)

let test_seeds_distinct () =
  let s = H.Runs.seeds 50 in
  check_int "distinct" 50 (List.length (List.sort_uniq Int.compare s))

module Es_runs = H.Runs.Of (Anon_consensus.Es_consensus)

let test_batch_counts () =
  let b =
    Es_runs.batch ~horizon:100
      ~inputs:(H.Runs.distinct_inputs ~n:4)
      ~crash:(fun _ -> G.Crash.none ~n:4)
      ~adversary:(fun _ -> G.Adversary.sync ())
      ~seeds:(H.Runs.seeds 5) ()
  in
  check_int "runs" 5 b.runs;
  check_int "all decided" 5 b.decided;
  check_int "decision rounds collected" 5 (List.length b.decision_rounds);
  check_int "no violations" 0 (H.Runs.safety_violations b);
  check_bool "mean present" true (H.Runs.mean_decision b <> None)

(* A metrics batch over no seeds still carries a snapshot, empty, so
   [anonc metrics --runs 0] prints its header and an empty table. *)
let test_batch_no_seeds () =
  let b =
    Es_runs.batch ~metrics:true
      ~inputs:(H.Runs.distinct_inputs ~n:4)
      ~crash:(fun _ -> G.Crash.none ~n:4)
      ~adversary:(fun _ -> G.Adversary.sync ())
      ~seeds:[] ()
  in
  check_int "runs" 0 b.runs;
  check_bool "empty snapshot" true (b.metrics = Some (Anon_obs.Metrics.merge []))

(* --- Registry ---------------------------------------------------------------------- *)

let test_registry_ids_unique () =
  let ids = List.map (fun (e : H.Registry.experiment) -> e.id) H.Registry.all in
  check_int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  check_int "all experiments present" 23 (List.length ids)

let test_registry_find () =
  check_bool "finds t9 case-insensitively" true (H.Registry.find "t9" <> None);
  check_bool "unknown" true (H.Registry.find "nope" = None)

(* --- regression pins on cheap experiments ------------------------------------------- *)

let column table ~header =
  let t : H.Table.t = table in
  match
    List.find_index (fun h -> h = header) t.headers
  with
  | None -> Alcotest.failf "missing column %s" header
  | Some i -> List.map (fun row -> List.nth row i) t.rows

let test_t9_all_defeated () =
  let t = H.Exp_impossibility.t9 () in
  check_int "four candidates" 4 (List.length t.rows);
  List.iter
    (fun verdict -> check_bool "defeated" true (verdict <> ""))
    (column t ~header:"verdict")

let test_a2_violations () =
  let t = H.Exp_ablations.a2 () in
  List.iter
    (fun v -> check_bool "agreement broken under literal model" true (int_of_string v > 0))
    (column t ~header:"agreement-viol");
  List.iter
    (fun v ->
      check_bool "inadmissible under strengthened model" true (int_of_string v > 0))
    (column t ~header:"env-viol (strengthened model)")

let test_t8_no_decisions () =
  let t = H.Exp_impossibility.t8 () in
  List.iter (fun v -> check_int "no decisions" 0 (int_of_string v)) (column t ~header:"decided");
  List.iter
    (fun v -> check_int "no safety violations" 0 (int_of_string v))
    (column t ~header:"safety-viol")

(* --- Bench_diff.git_revision ------------------------------------------------------- *)

(* Lay out [files] (path, contents) in a fresh temporary directory, read
   the revision from there, then restore the working directory and remove
   the tree. *)
let revision_in files =
  let root = Filename.temp_dir "anon_git_revision" "" in
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  List.iter
    (fun (path, contents) ->
      let path = Filename.concat root path in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc -> output_string oc contents))
    files;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      rm_rf root)
    (fun () ->
      Sys.chdir root;
      H.Bench_diff.git_revision ())

let test_git_revision () =
  let cwd = Sys.getcwd () in
  let hash = "0123456789abcdef0123456789abcdef01234567" in
  let other = "89abcdef0123456789abcdef0123456789abcdef" in
  let head_ref = (".git/HEAD", "ref: refs/heads/main\n") in
  let check label expected files =
    Alcotest.(check string) label expected (revision_in files)
  in
  check "detached HEAD" hash [ (".git/HEAD", hash ^ "\n") ];
  check "loose ref" hash [ head_ref; (".git/refs/heads/main", hash ^ "\n") ];
  check "packed ref" hash
    [
      head_ref;
      ( ".git/packed-refs",
        String.concat "\n"
          [
            "# pack-refs with: peeled fully-peeled sorted";
            other ^ " refs/tags/v1";
            "^" ^ other;
            hash ^ " refs/heads/main";
            "";
          ] );
    ];
  check "unborn ref" "unknown" [ head_ref ];
  check "no .git" "unknown" [];
  Alcotest.(check string) "working directory restored" cwd (Sys.getcwd ())

let () =
  Alcotest.run "harness"
    [
      ( "table",
        [
          Alcotest.test_case "ragged" `Quick test_table_ragged;
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "csv escaping rfc4180" `Quick test_csv_escape_rfc4180;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "runs",
        [
          Alcotest.test_case "seeds distinct" `Quick test_seeds_distinct;
          Alcotest.test_case "batch counts" `Quick test_batch_counts;
          Alcotest.test_case "metrics batch over no seeds" `Quick test_batch_no_seeds;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "T9 defeats all" `Quick test_t9_all_defeated;
          Alcotest.test_case "A2 model sensitivity" `Quick test_a2_violations;
          Alcotest.test_case "T8 no decisions" `Quick test_t8_no_decisions;
        ] );
      ("provenance", [ Alcotest.test_case "git revision" `Quick test_git_revision ]);
    ]
