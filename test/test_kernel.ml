(* Unit and property tests for the kernel: RNG, values, histories, counter
   tables, statistics. *)

open Anon_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Rng ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.make 7 and b = Rng.make 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.make 7 and b = Rng.make 8 in
  let different = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then different := true
  done;
  check_bool "different seeds diverge" true !different

let test_rng_split_independent () =
  let a = Rng.make 7 in
  let c = Rng.split a in
  let x = Rng.bits64 a and y = Rng.bits64 c in
  check_bool "split stream differs" false (Int64.equal x y)

let test_rng_copy () =
  let a = Rng.make 3 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.make 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    check_bool "0 <= x < 7" true (x >= 0 && x < 7)
  done

let test_rng_int_in_bounds () =
  let rng = Rng.make 2 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng (-3) 4 in
    check_bool "-3 <= x <= 4" true (x >= -3 && x <= 4)
  done

let test_rng_int_invalid () =
  let rng = Rng.make 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.int_in: lo > hi") (fun () ->
      ignore (Rng.int_in rng 3 2))

let test_rng_chance_extremes () =
  let rng = Rng.make 1 in
  check_bool "p=0 never" false (Rng.chance rng 0.0);
  check_bool "p=1 always" true (Rng.chance rng 1.0)

let test_rng_pick () =
  let rng = Rng.make 5 in
  for _ = 1 to 100 do
    check_bool "pick from list" true (List.mem (Rng.pick rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick rng []))

let test_rng_subset () =
  let rng = Rng.make 5 in
  let l = List.init 20 Fun.id in
  check_int "p=1 keeps all" 20 (List.length (Rng.subset rng ~p:1.0 l));
  check_int "p=0 keeps none" 0 (List.length (Rng.subset rng ~p:0.0 l));
  let sub = Rng.subset rng ~p:0.5 l in
  check_bool "subset order preserved" true (List.sort compare sub = sub)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (small_list int))
    (fun (seed, l) ->
      let rng = Rng.make seed in
      List.sort compare (Rng.shuffle rng l) = List.sort compare l)

let prop_float_bounds =
  QCheck.Test.make ~name:"float within bound" ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.make seed in
      let x = Rng.float rng 10.0 in
      x >= 0.0 && x < 10.0)

(* The first outputs of three seeds and of a child split from each, as
   every earlier version of the generator drew them: runs replay only if
   the stream never changes. *)
let test_rng_pinned_streams () =
  List.iter
    (fun (seed, bits, int, chance, child_bits, child_int) ->
      let t = Rng.make seed in
      let label what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check int64) (label "bits64") bits (Rng.bits64 t);
      check_int (label "int") int (Rng.int t 1000);
      check_bool (label "chance") chance (Rng.chance t 0.5);
      let c = Rng.split t in
      Alcotest.(check int64) (label "child bits64") child_bits (Rng.bits64 c);
      check_int (label "child int") child_int (Rng.int c 1000))
    [
      (0, -2152535657050944081L, 925, true, 1273976351773621849L, 521);
      (42, -4767286540954276203L, 72, true, -3524509440982052747L, 221);
      (7, 7191089600892374487L, 951, false, 2386491329132065434L, 630);
    ]

(* Minor words of [f ()], net of the probe's own. *)
let words f =
  let probe =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let a = Gc.minor_words () in
  f ();
  Gc.minor_words () -. a -. probe

(* The state is unboxed: a draw allocates nothing, and [float] only the
   float it returns. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.make 9 in
  let draws name draw =
    Alcotest.(check (float 0.)) (name ^ ": 1000 draws, minor words") 0.
      (words (fun () ->
           for _ = 1 to 1000 do
             draw ()
           done))
  in
  draws "int" (fun () -> ignore (Rng.int rng 10 : int));
  draws "int_in" (fun () -> ignore (Rng.int_in rng 1 3 : int));
  draws "bool" (fun () -> ignore (Rng.bool rng : bool));
  draws "chance" (fun () -> ignore (Rng.chance rng 0.3 : bool));
  let w = words (fun () -> for _ = 1 to 1000 do ignore (Rng.float rng 1.0 : float) done) in
  check_bool
    (Printf.sprintf "float: %.0f words in 1000 draws, its results only" w)
    true (w <= 2000.)

(* --- Pidset ---------------------------------------------------------------- *)

let gen_pids rng =
  List.filter (fun _ -> Rng.chance rng 0.3) (List.init (Rng.int_in rng 0 200) Fun.id)

(* Every operation against sorted, deduplicated pid lists, over sets that
   cross word boundaries. *)
let prop_pidset_matches_lists =
  QCheck.Test.make ~name:"pidset = sorted pid lists" ~count:500 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.make seed in
      let la = gen_pids rng and lb = gen_pids rng in
      let a = Pidset.of_list la and b = Pidset.of_list lb in
      let p = Rng.int rng 220 in
      let inter = List.filter (fun x -> List.mem x lb) la in
      let rows =
        let bl = Pidset.Rows.create ~rows:2 ~size:220 in
        List.iter (Pidset.Rows.add bl ~row:1) (List.rev la);
        let empty0 = Pidset.Rows.is_empty bl ~row:0 in
        let got = Pidset.Rows.take bl ~row:1 in
        empty0 && got = a && Pidset.Rows.is_empty bl ~row:1
      in
      Pidset.to_list a = la
      && Pidset.mem p a = List.mem p la
      && Pidset.to_list (Pidset.union a b) = List.sort_uniq compare (la @ lb)
      && Pidset.to_list (Pidset.inter a b) = inter
      && Pidset.to_list (Pidset.diff a b) = List.filter (fun x -> not (List.mem x lb)) la
      && Pidset.cardinal a = List.length la
      && Pidset.inter_cardinal a b = List.length inter
      && Pidset.to_list (Pidset.remove p a) = List.filter (fun x -> x <> p) la
      (* canonical: equal sets are equal values *)
      && Pidset.union a b = Pidset.of_list (la @ lb)
      && (Pidset.inter a b = Pidset.empty) = (inter = [])
      && rows)

let test_pidset_reads_allocate_nothing () =
  let a = Pidset.of_list [ 0; 5; 31; 32; 200; 511 ] and b = Pidset.of_list (List.init 512 Fun.id) in
  Alcotest.(check (float 0.)) "mem, cardinal, inter_cardinal, inter of a subset" 0.
    (words (fun () ->
         for p = 0 to 999 do
           ignore (Pidset.mem (p land 511) a : bool);
           ignore (Pidset.cardinal a : int);
           ignore (Pidset.inter_cardinal a b : int);
           ignore (Pidset.inter a b : Pidset.t)
         done));
  Alcotest.check_raises "negative pid" (Invalid_argument "Pidset: negative pid") (fun () ->
      ignore (Pidset.of_list [ -1 ]))

(* --- Value / Pvalue -------------------------------------------------------- *)

let test_value_max_of () =
  check_int "max" 9 (Value.max_of [ 3; 9; 1 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Value.max_of: empty list") (fun () ->
      ignore (Value.max_of []))

let test_value_pp_set () =
  let s = Value.set_of_list [ 3; 1; 2 ] in
  Alcotest.(check string) "sorted render" "{1, 2, 3}" (Format.asprintf "%a" Value.pp_set s)

(* The one decimal routine against [string_of_int]: [Value.to_string],
   [Value.iter_decimal] into a buffer, and the model checker's text
   stream, which feeds [Canon.Digest.feed_int]'s bytes. *)
let decimal_matches n =
  let through_stream =
    let b = Buffer.create 20 in
    Anon_mc.Canon.Digest.feed_int (Anon_mc.Canon.Digest.text b) n;
    Buffer.contents b
  in
  let through_iter =
    let b = Buffer.create 20 in
    Value.iter_decimal Buffer.add_char b n;
    Buffer.contents b
  in
  let expected = string_of_int n in
  Value.to_string n = expected && through_iter = expected && through_stream = expected

let decimal_edges =
  [ 0; 9; -9; 10; -10; 99; -99; 100; -100; 1023; 1024; -1; min_int; max_int; min_int + 1 ]

let test_value_decimal_edges () =
  List.iter
    (fun n -> check_bool (Printf.sprintf "%d renders as string_of_int" n) true (decimal_matches n))
    decimal_edges

let prop_value_decimal =
  QCheck.Test.make ~name:"decimal = string_of_int over the int range" ~count:1000
    QCheck.(oneof [ int; small_signed_int ])
    decimal_matches

let test_value_decimal_allocates_nothing () =
  let digits = ref 0 in
  let count r _ = incr r in
  Alcotest.(check (float 0.)) "iter_decimal over 1000 ints, minor words" 0.
    (words (fun () ->
         for i = 1 to 1000 do
           Value.iter_decimal count digits (i * 7919 * 7919 * 7919)
         done));
  let small () =
    for i = 0 to 1023 do
      ignore (Value.to_string i : string)
    done
  in
  small ();
  Alcotest.(check (float 0.)) "to_string of 0 to 1023 again, minor words" 0. (words small)

let test_pvalue_order () =
  check_bool "bot below" true (Pvalue.compare Pvalue.bot (Pvalue.v min_int) < 0);
  check_bool "values ordered" true (Pvalue.compare (Pvalue.v 1) (Pvalue.v 2) < 0);
  check_bool "bot = bot" true (Pvalue.equal Pvalue.bot Pvalue.bot)

let test_pvalue_max_value () =
  let s = Pvalue.Set.of_list [ Pvalue.bot; Pvalue.v 3; Pvalue.v 7 ] in
  Alcotest.(check (option int)) "max ignores bot" (Some 7) (Pvalue.max_value s);
  let only_bot = Pvalue.Set.singleton Pvalue.bot in
  Alcotest.(check (option int)) "only bot" None (Pvalue.max_value only_bot);
  Alcotest.(check (option int)) "empty" None (Pvalue.max_value Pvalue.Set.empty)

let test_pvalue_subset_of_val_bot () =
  let s = Pvalue.Set.of_list [ Pvalue.bot; Pvalue.v 3 ] in
  check_bool "{3,bot} subset of {3,bot}" true (Pvalue.subset_of_val_bot 3 s);
  check_bool "{3,bot} not subset of {4,bot}" false (Pvalue.subset_of_val_bot 4 s);
  check_bool "empty always" true (Pvalue.subset_of_val_bot 0 Pvalue.Set.empty)

let prop_pvalue_values_of_set =
  QCheck.Test.make ~name:"values_of_set drops bot and sorts" ~count:200
    QCheck.(small_list small_int)
    (fun vs ->
      let s = Pvalue.Set.of_list (Pvalue.bot :: List.map Pvalue.v vs) in
      Pvalue.values_of_set s = List.sort_uniq Int.compare vs)

(* --- History --------------------------------------------------------------- *)

let test_history_roundtrip () =
  let h = History.of_list [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (History.to_list h);
  check_int "length" 3 (History.length h);
  Alcotest.(check (option int)) "last" (Some 3) (History.last h);
  Alcotest.(check (option int)) "empty last" None (History.last History.empty)

let test_history_interning () =
  let a = History.of_list [ 4; 5 ] and b = History.of_list [ 4; 5 ] in
  check_bool "equal" true (History.equal a b);
  check_int "compare 0" 0 (History.compare a b);
  check_bool "hash equal" true (History.hash a = History.hash b)

let test_history_prefix () =
  let h = History.of_list [ 1; 2; 3 ] in
  check_bool "empty prefix" true (History.is_prefix ~prefix:History.empty h);
  check_bool "proper prefix" true (History.is_prefix ~prefix:(History.of_list [ 1; 2 ]) h);
  check_bool "self prefix" true (History.is_prefix ~prefix:h h);
  check_bool "not prefix (longer)" false
    (History.is_prefix ~prefix:(History.of_list [ 1; 2; 3; 4 ]) h);
  check_bool "not prefix (diverged)" false
    (History.is_prefix ~prefix:(History.of_list [ 1; 9 ]) h)

let test_history_prefixes () =
  let h = History.of_list [ 1; 2 ] in
  let ps = History.prefixes h in
  check_int "count" 3 (List.length ps);
  Alcotest.(check (list (list int))) "shortest first"
    [ []; [ 1 ]; [ 1; 2 ] ]
    (List.map History.to_list ps)

let prop_history_roundtrip =
  QCheck.Test.make ~name:"of_list/to_list roundtrip" ~count:300
    QCheck.(small_list small_int)
    (fun vs -> History.to_list (History.of_list vs) = vs)

let prop_history_prefix_model =
  QCheck.Test.make ~name:"is_prefix matches list model" ~count:300
    QCheck.(pair (small_list small_int) (small_list small_int))
    (fun (a, b) ->
      let rec list_prefix a b =
        match a, b with
        | [], _ -> true
        | _, [] -> false
        | x :: a', y :: b' -> x = y && list_prefix a' b'
      in
      History.is_prefix ~prefix:(History.of_list a) (History.of_list b)
      = list_prefix a b)

let prop_history_lexicographic =
  QCheck.Test.make ~name:"compare_lexicographic matches list compare" ~count:300
    QCheck.(pair (small_list small_int) (small_list small_int))
    (fun (a, b) ->
      let c =
        History.compare_lexicographic (History.of_list a) (History.of_list b)
      in
      compare c 0 = compare (List.compare Int.compare a b) 0)

(* Digests depend on the values alone: the same lists interned in another
   scope, in another order, get the same digests, and distinct lists
   distinct ones. *)
let prop_history_digest_structural =
  QCheck.Test.make ~name:"digest is structural across interner scopes" ~count:200
    QCheck.(small_list (small_list (int_bound 3)))
    (fun lists ->
      let digests order =
        History.with_fresh_interner (fun () ->
            List.iter (fun vs -> ignore (History.of_list vs : History.t)) (order lists);
            List.map (fun vs -> History.digest (History.of_list vs)) lists)
      in
      let fwd = digests Fun.id and bwd = digests List.rev in
      let pairs = List.combine lists fwd in
      fwd = bwd
      && List.for_all
           (fun (a, da) -> List.for_all (fun (b, db) -> (a = b) = (da = db)) pairs)
           pairs)

(* --- Counter_table ---------------------------------------------------------- *)

let h1 = History.of_list [ 1 ]
let h12 = History.of_list [ 1; 2 ]
let h123 = History.of_list [ 1; 2; 3 ]
let h9 = History.of_list [ 9 ]

let test_ct_get_set () =
  let t = Counter_table.set Counter_table.empty h1 4 in
  check_int "set/get" 4 (Counter_table.get t h1);
  check_int "default 0" 0 (Counter_table.get t h9);
  let t = Counter_table.set t h1 0 in
  check_int "set 0 removes" 0 (Counter_table.cardinal t)

let test_ct_min_merge () =
  let t1 = Counter_table.set (Counter_table.set Counter_table.empty h1 3) h12 5 in
  let t2 = Counter_table.set (Counter_table.set Counter_table.empty h1 2) h9 7 in
  let m = Counter_table.merge_bump [ t1; t2 ] [] in
  check_int "common key min" 2 (Counter_table.get m h1);
  check_int "missing key drops (h12)" 0 (Counter_table.get m h12);
  check_int "missing key drops (h9)" 0 (Counter_table.get m h9);
  check_int "empty merge" 0 (Counter_table.cardinal (Counter_table.merge_bump [] []))

let test_ct_bump_prefix_max () =
  let t = Counter_table.set Counter_table.empty h1 4 in
  let t = Counter_table.merge_bump [ t ] [ h123 ] in
  check_int "1 + max over prefixes" 5 (Counter_table.get t h123);
  (* Bumping again now sees its own entry. *)
  let t = Counter_table.merge_bump [ t ] [ h123 ] in
  check_int "rebump" 6 (Counter_table.get t h123);
  let t2 = Counter_table.merge_bump [ Counter_table.empty ] [ h9 ] in
  check_int "bump from zero" 1 (Counter_table.get t2 h9)

(* Line 9 keeps inbox order: a descendant bumped before its ancestor
   does not see the ancestor's new count, and one bumped after it does.
   A pass over the histories in id order gives 6 in both cases. *)
let test_ct_merge_bump_inbox_order () =
  let ta = Counter_table.set (Counter_table.set Counter_table.empty h1 4) h9 2 in
  let tb = Counter_table.set Counter_table.empty h1 7 in
  let t = Counter_table.merge_bump [ ta; tb ] [ h12; h1 ] in
  check_int "min-merged away" 0 (Counter_table.get t h9);
  check_int "descendant first: 1 + 4" 5 (Counter_table.get t h12);
  check_int "then its ancestor: 1 + 4" 5 (Counter_table.get t h1);
  let t = Counter_table.merge_bump [ ta; tb ] [ h1; h12 ] in
  check_int "ancestor first: 1 + 4" 5 (Counter_table.get t h1);
  check_int "then the descendant sees it: 1 + 5" 6 (Counter_table.get t h12)

let test_ct_is_max () =
  let t = Counter_table.set (Counter_table.set Counter_table.empty h1 3) h9 5 in
  check_bool "h9 is max" true (Counter_table.is_max t h9);
  check_bool "h1 is not" false (Counter_table.is_max t h1);
  check_bool "all-zero table: anything is max" true
    (Counter_table.is_max Counter_table.empty h12)

let test_ct_max_binding () =
  Alcotest.(check bool) "empty" true (Counter_table.max_binding Counter_table.empty = None);
  let t = Counter_table.set (Counter_table.set Counter_table.empty h1 5) h9 5 in
  (match Counter_table.max_binding t with
  | Some (h, 5) ->
    (* Ties broken lexicographically: ⟨1⟩ < ⟨9⟩. *)
    check_bool "lexicographic tie-break" true (History.equal h h1)
  | Some _ | None -> Alcotest.fail "expected a max binding of 5")

let prop_ct_min_merge_model =
  (* Line 8 alone against a naive model over a tiny key universe. *)
  let table_gen =
    QCheck.Gen.(
      list_size (int_bound 4)
        (pair (int_bound 3) (int_range 1 5))
      |> map (fun kvs ->
             List.fold_left
               (fun t (k, v) -> Counter_table.set t (History.of_list [ k ]) v)
               Counter_table.empty kvs))
  in
  QCheck.Test.make ~name:"min_merge pointwise min with default 0" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) table_gen))
    (fun tables ->
      let merged = Counter_table.merge_bump tables [] in
      List.for_all
        (fun k ->
          let h = History.of_list [ k ] in
          let expected =
            List.fold_left (fun acc t -> min acc (Counter_table.get t h)) max_int tables
          in
          Counter_table.get merged h = expected)
        [ 0; 1; 2; 3 ])

(* Reference model: the map-keyed table the flat one replaced. Its
   [compare] is the order contract (it fixes ESS inbox order). *)
module Ref_table = struct
  module M = History.Map

  let empty = M.empty
  let get t h = Option.value ~default:0 (M.find_opt h t)
  let set t h c = if c <= 0 then M.remove h t else M.add h c t

  let min_merge = function
    | [] -> empty
    | t0 :: ts ->
      List.fold_left
        (fun acc t -> M.filter_map (fun h c -> Option.map (min c) (M.find_opt h t)) acc)
        t0 ts

  let max_merge ts = List.fold_left (M.union (fun _ a b -> Some (max a b))) empty ts

  let bump t h =
    set t h (1 + List.fold_left (fun acc p -> max acc (get t p)) 0 (History.prefixes h))

  (* Folds the table once per partial application. *)
  let is_max t =
    let peak = M.fold (fun _ c acc -> max acc c) t 0 in
    fun h -> get t h >= peak

  let max_binding t =
    M.fold
      (fun h c best ->
        match best with
        | Some (h', c') when c < c' || (c = c' && History.compare_lexicographic h' h <= 0) ->
          best
        | Some _ | None -> Some (h, c))
      t None

  let compare = M.compare Int.compare
end

type ct_op =
  | Set of int * int * int  (* table, history, count (0 removes) *)
  | Min_merge of int list  (* line 8 alone *)
  | Max_merge of int list
  | Bump of int * int  (* table, history *)
  | Bump_all of int * int list  (* table, histories in inbox order *)
  | Merge_bump of int list * (int * int) list
      (* tables; histories in inbox order, each (history, levels up) *)
  | Bump_prefix of int * int * int  (* table, history, levels up *)
  | Twin of int  (* table, rebuilt by other ops with equal content *)
  | Twin_merge of int  (* line 8 over a table's twin and the table *)
  | Trim of int * int  (* table, entries removed from the top id down *)

let pp_ct_op = function
  | Set (t, h, c) -> Printf.sprintf "set t%d h%d %d" t h c
  | Min_merge ts -> "merge_bump [" ^ String.concat ";" (List.map string_of_int ts) ^ "] []"
  | Max_merge ts -> "max_merge [" ^ String.concat ";" (List.map string_of_int ts) ^ "]"
  | Bump (t, h) -> Printf.sprintf "merge_bump [t%d] [h%d]" t h
  | Bump_all (t, hs) ->
    Printf.sprintf "merge_bump [t%d] [%s]" t (String.concat ";" (List.map string_of_int hs))
  | Merge_bump (ts, hs) ->
    Printf.sprintf "merge_bump [%s] [%s]"
      (String.concat ";" (List.map string_of_int ts))
      (String.concat ";" (List.map (fun (h, up) -> Printf.sprintf "h%d up %d" h up) hs))
  | Bump_prefix (t, h, up) -> Printf.sprintf "merge_bump [t%d] [h%d up %d]" t h up
  | Twin t -> Printf.sprintf "twin t%d" t
  | Twin_merge t -> Printf.sprintf "merge_bump [twin t%d; t%d] []" t t
  | Trim (t, k) -> Printf.sprintf "trim t%d by %d" t k

(* Every history over {0,1,2} up to length 4, [empty] included: plenty of
   prefix chains, and enough keys for tables that span several storage
   segments. Interned in a generated order, so intern ids and the
   lexicographic order disagree. *)
let ct_universe seed =
  let rec words n =
    if n = 0 then [ [] ]
    else [] :: List.concat_map (fun w -> [ 0 :: w; 1 :: w; 2 :: w ]) (words (n - 1))
  in
  Array.of_list (List.map History.of_list (Rng.shuffle (Rng.make seed) (words 4)))

(* Several lineages at least [depth] deep: each branches off an earlier
   one at a random depth and then appends random values. Interned one
   lineage after another, so every later branch starts a new run, and
   there are enough keys for tables that span every tree level. *)
let ct_deep_universe seed =
  let rng = Rng.make seed and depth = 320 in
  let lineages = Array.make 8 History.empty in
  let all = ref [ History.empty ] in
  let append h v =
    h := History.snoc !h v;
    all := !h :: !all
  in
  for k = 0 to Array.length lineages - 1 do
    let h = ref (if k = 0 then History.empty else lineages.(Rng.int rng k)) in
    (* Walk up to a random depth, then branch with a value no other
       lineage takes. *)
    let branch = Rng.int rng depth in
    while History.length !h > branch do h := History.parent !h done;
    append h (3 + k);
    for _ = History.length !h to depth + Rng.int rng 8 do append h (Rng.int rng 3) done;
    lineages.(k) <- !h
  done;
  Array.of_list (List.rev !all)

(* The fused kernel's inputs: no table, one, a table listed twice or up
   to four; an inbox of up to eight histories with repeats and
   prefix pairs in both orders. *)
let merge_bump_gen =
  QCheck.Gen.(
    let tables = oneof [ list_size (int_bound 4) nat; map (fun t -> [ t; t ]) nat ] in
    let inbox =
      list_size (int_bound 4) (triple nat (int_range 1 5) (int_bound 3))
      >|= List.concat_map (fun (h, up, shape) ->
              match shape with
              | 0 -> [ (h, 0) ]
              | 1 -> [ (h, 0); (h, 0) ]
              | 2 -> [ (h, 0); (h, up) ]
              | _ -> [ (h, up); (h, 0) ])
    in
    map2 (fun ts hs -> Merge_bump (ts, hs)) tables inbox)

(* Checks the table against the map model after every op of a random
   sequence over the histories [universe seed]; [ops] adds generators to
   the six every universe draws from. *)
let ct_differential ~name ~count ~ops universe =
  let op_gen =
    QCheck.Gen.(
      frequency
        ([
           (3, map3 (fun t h c -> Set (t, h, c)) nat nat (int_bound 4));
           (2, map (fun ts -> Min_merge ts) (list_size (int_bound 4) nat));
           (1, map (fun ts -> Max_merge ts) (list_size (int_bound 4) nat));
           (3, map2 (fun t h -> Bump (t, h)) nat nat);
           (2, map2 (fun t hs -> Bump_all (t, hs)) nat (list_size (int_bound 5) nat));
           (3, merge_bump_gen);
         ]
        @ ops))
  in
  let arb =
    QCheck.make
      ~print:(fun (seed, ops) ->
        Printf.sprintf "seed %d: %s" seed (String.concat ", " (List.map pp_ct_op ops)))
      QCheck.Gen.(pair small_nat (list_size (int_range 1 40) op_gen))
  in
  QCheck.Test.make ~name ~count arb
    (fun (seed, ops) ->
      History.with_fresh_interner (fun () ->
          let hs = universe seed in
          let h i = hs.(i mod Array.length hs) in
          let rec lift h k = if k = 0 then h else lift (History.parent h) (k - 1) in
          (* Besides [empty], two dense tables over a random ~4/5 of the
             universe: more than one segment. *)
          let dense rng =
            Array.fold_left
              (fun (t, r) h ->
                let c = Rng.int rng 5 in
                (Counter_table.set t h c, Ref_table.set r h c))
              (Counter_table.empty, Ref_table.empty) hs
          in
          let rng = Rng.make seed in
          let pool = ref [| (Counter_table.empty, Ref_table.empty); dense rng; dense rng |] in
          let nth i = !pool.(i mod Array.length !pool) in
          (* The same bindings, set one by one in id order. *)
          let twin t =
            List.fold_left
              (fun acc (h, c) -> Counter_table.set acc h c)
              Counter_table.empty (Counter_table.bindings t)
          in
          let sign x = Int.compare x 0 in
          let agrees (t, r) =
            let same_binding (h, c) (h', c') = History.equal h h' && c = c' in
            let is_max_r = Ref_table.is_max r in
            List.equal same_binding (Counter_table.bindings t) (Ref_table.M.bindings r)
            && Counter_table.cardinal t = Ref_table.M.cardinal r
            && Array.for_all
                 (fun h ->
                   Counter_table.get t h = Ref_table.get r h
                   && Counter_table.is_max t h = is_max_r h)
                 hs
            && Option.equal same_binding (Counter_table.max_binding t) (Ref_table.max_binding r)
            && Array.for_all
                 (fun (t', r') ->
                   sign (Counter_table.compare t t') = sign (Ref_table.compare r r')
                   && Counter_table.equal t t' = (Ref_table.compare r r' = 0))
                 !pool
          in
          List.for_all
            (fun op ->
              let next =
                match op with
                | Set (i, j, c) ->
                  let t, r = nth i in
                  (Counter_table.set t (h j) c, Ref_table.set r (h j) c)
                | Min_merge is ->
                  let ts, rs = List.split (List.map nth is) in
                  (Counter_table.merge_bump ts [], Ref_table.min_merge rs)
                | Max_merge is ->
                  let ts, rs = List.split (List.map nth is) in
                  (Counter_table.max_merge ts, Ref_table.max_merge rs)
                | Bump (i, j) ->
                  let t, r = nth i in
                  (Counter_table.merge_bump [ t ] [ h j ], Ref_table.bump r (h j))
                | Bump_all (i, js) ->
                  let t, r = nth i in
                  let hs = List.map h js in
                  (Counter_table.merge_bump [ t ] hs, List.fold_left Ref_table.bump r hs)
                | Merge_bump (is, js) ->
                  let ts, rs = List.split (List.map nth is) in
                  let hs = List.map (fun (j, up) -> lift (h j) up) js in
                  ( Counter_table.merge_bump ts hs,
                    List.fold_left Ref_table.bump (Ref_table.min_merge rs) hs )
                | Bump_prefix (i, j, up) ->
                  let t, r = nth i in
                  let p = lift (h j) up in
                  (Counter_table.merge_bump [ t ] [ p ], Ref_table.bump r p)
                | Twin i ->
                  let t, r = nth i in
                  (twin t, r)
                | Twin_merge i ->
                  let t, r = nth i in
                  (Counter_table.merge_bump [ twin t; t ] [], r)
                | Trim (i, k) ->
                  (* One removal at a time from the end, so the length
                     crosses segment boundaries. *)
                  let t, r = nth i in
                  let top = List.filteri (fun j _ -> j < k) (List.rev (Counter_table.bindings t)) in
                  List.fold_left
                    (fun (t, r) (h, _) -> (Counter_table.set t h 0, Ref_table.set r h 0))
                    (t, r) top
              in
              let ok = agrees next in
              pool := Array.append !pool [| next |];
              ok)
            ops))

(* Two tables with equal content, one appended in id order and one whose
   odd entries land in the middle: line 8 skips every full segment
   they share through hash-consing and visits at most two 32-slot
   segments' worth of entries. The deep universe is large enough for a
   tree with two inner levels (more than 32 x 32 + 32 entries). *)
let test_ct_hash_consing () =
  History.with_fresh_interner (fun () ->
      let hs = ct_deep_universe 3 in
      let count h = 1 + (History.length h mod 4) in
      let set_all t hs = Array.fold_left (fun t h -> Counter_table.set t h (count h)) t hs in
      let a = set_all Counter_table.empty hs in
      let b =
        let evens, odds = List.partition (fun h -> History.id h mod 2 = 0) (Array.to_list hs) in
        set_all (set_all Counter_table.empty (Array.of_list evens)) (Array.of_list odds)
      in
      check_bool "more than 1 056 entries" true (Counter_table.cardinal a > 1056);
      check_bool "equal content" true (Counter_table.equal a b);
      let before = Counter_table.slot_visits () in
      let m = Counter_table.merge_bump [ a; b ] [] in
      let visited = Counter_table.slot_visits () - before in
      check_bool (Printf.sprintf "visited %d <= 64" visited) true (visited <= 64);
      check_bool "merge = a" true (Counter_table.equal m a);
      let before = Counter_table.slot_visits () in
      check_int "compare" 0 (Counter_table.compare b a);
      check_bool "compare visits <= 64" true (Counter_table.slot_visits () - before <= 64))

let prop_ct_differential =
  ct_differential ~name:"flat table = map model after every op" ~count:200 ~ops:[] ct_universe

let prop_ct_differential_deep =
  ct_differential ~name:"deep lineages: table = map model after every op" ~count:25
    ~ops:
      QCheck.Gen.
        [
          (2, map3 (fun t h up -> Bump_prefix (t, h, up)) nat nat (int_bound 40));
          (1, map (fun t -> Twin t) nat);
          (1, map (fun t -> Twin_merge t) nat);
          (1, map2 (fun t k -> Trim (t, k)) nat (int_bound 40));
        ]
    ct_deep_universe

(* The digest is a function of the content: equal in another interner
   scope whose ids differ and whose entries went in another order, and
   different for different content. [b] is [a] with a few entries set
   again, so it often differs from [a] in counts only. *)
let prop_ct_digest_structural =
  let entry = QCheck.Gen.(pair (list_size (int_range 1 3) (int_bound 2)) (int_range 1 3)) in
  QCheck.Test.make ~name:"digest = content, across scopes and orders" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 6) entry >>= fun a ->
         let reset = if a = [] then entry else pair (map fst (oneofl a)) (int_range 1 3) in
         list_size (int_range 1 2) (oneof [ entry; reset ]) >|= fun edits -> (a, a @ edits)))
    (fun (a, b) ->
      let content kvs =
        List.sort compare
          (List.fold_left (fun m (k, c) -> (k, c) :: List.remove_assoc k m) [] kvs)
      in
      let build kvs =
        List.fold_left
          (fun t (vs, c) -> Counter_table.set t (History.of_list vs) c)
          Counter_table.empty kvs
      in
      let digest kvs = History.with_fresh_interner (fun () -> Counter_table.digest (build kvs)) in
      let reordered kvs =
        History.with_fresh_interner (fun () ->
            List.iter (fun (vs, _) -> ignore (History.of_list (3 :: vs) : History.t)) kvs;
            Counter_table.digest (build (List.rev (content kvs))))
      in
      digest a = reordered a && (content a = content b) = (digest a = digest b))

let test_ct_digest_allocation () =
  let t =
    List.fold_left
      (fun t i -> Counter_table.set t (History.of_list [ i mod 7; i ]) (1 + (i mod 5)))
      Counter_table.empty (List.init 100 Fun.id)
  in
  let w = words (fun () -> ignore (Counter_table.digest t : int * int)) in
  check_bool (Printf.sprintf "digest of 100 entries: %.0f minor words, its pair only" w) true
    (w <= 3.)

let prop_ct_max_merge_laws =
  (* Ablation A3's merge: the model's pointwise-max union, commutative and
     idempotent, and pointwise at least line 8's min-merge. *)
  let kvs_gen =
    QCheck.Gen.(
      list_size (int_bound 5) (pair (list_size (int_bound 2) (int_bound 2)) (int_range 1 5)))
  in
  QCheck.Test.make ~name:"max_merge = map model, commutative, idempotent" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 4) kvs_gen))
    (fun kvss ->
      let build set empty kvs =
        List.fold_left (fun t (k, v) -> set t (History.of_list k) v) empty kvs
      in
      let tables = List.map (build Counter_table.set Counter_table.empty) kvss in
      let refs = List.map (build Ref_table.set Ref_table.empty) kvss in
      let merged = Counter_table.max_merge tables in
      let lo = Counter_table.merge_bump tables [] in
      List.equal
        (fun (h, c) (h', c') -> History.equal h h' && c = c')
        (Counter_table.bindings merged)
        (Ref_table.M.bindings (Ref_table.max_merge refs))
      && Counter_table.equal merged (Counter_table.max_merge (List.rev tables))
      && Counter_table.equal merged (Counter_table.max_merge (tables @ tables))
      && List.for_all
           (fun (h, c) -> Counter_table.get lo h <= c)
           (Counter_table.bindings merged))

(* --- Stats ------------------------------------------------------------------ *)

let test_stats_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0.0 (Stats.stddev [ 5.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p1" 1.0 (Stats.percentile xs 1.0)

let test_stats_summarize () =
  let s = Stats.summarize_ints [ 1; 2; 3; 4; 5 ] in
  check_int "count" 5 s.count;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.max

let test_stats_histogram () =
  let h = Stats.histogram ~bucket:10 [ 1; 5; 11; 25; 27 ] in
  Alcotest.(check (list (pair int int))) "buckets" [ (0, 2); (10, 1); (20, 2) ] h

let test_stats_single_sample () =
  let s = Stats.summarize [ 7.5 ] in
  check_int "count" 1 s.count;
  Alcotest.(check (float 1e-9)) "mean" 7.5 s.mean;
  Alcotest.(check (float 1e-9)) "stddev" 0.0 s.stddev;
  Alcotest.(check (float 1e-9)) "min" 7.5 s.min;
  Alcotest.(check (float 1e-9)) "p50" 7.5 s.p50;
  Alcotest.(check (float 1e-9)) "p95" 7.5 s.p95;
  Alcotest.(check (float 1e-9)) "max" 7.5 s.max

let test_stats_percentile_extremes () =
  let xs = [ 3.0; 1.0; 4.0; 2.0 ] in
  (* p=0 must clamp to the smallest sample, p=100 to the largest,
     regardless of input order. *)
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 4.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p0 singleton" 9.0 (Stats.percentile [ 9.0 ] 0.0);
  Alcotest.(check (float 1e-9)) "p100 singleton" 9.0 (Stats.percentile [ 9.0 ] 100.0)

let test_stats_sparse_histogram () =
  (* Widely separated samples: empty buckets are skipped, not emitted as
     zero-count entries. *)
  let h = Stats.histogram ~bucket:10 [ 1; 1000 ] in
  Alcotest.(check (list (pair int int))) "sparse" [ (0, 1); (1000, 1) ] h;
  Alcotest.(check (list (pair int int))) "empty" [] (Stats.histogram ~bucket:10 [])

let prop_stats_histogram_total =
  QCheck.Test.make ~name:"histogram counts sum to sample size" ~count:200
    QCheck.(small_list small_nat)
    (fun xs ->
      let h = Stats.histogram ~bucket:3 xs in
      List.fold_left (fun acc (_, c) -> acc + c) 0 h = List.length xs)

let test_stats_summarize_negative () =
  (* Regression: max was seeded with Float.min_float (the smallest
     positive normal, ~2.2e-308), so an all-negative sample reported a
     tiny positive max instead of -1. *)
  let s = Stats.summarize [ -5.0; -1.0; -3.0 ] in
  Alcotest.(check (float 1e-9)) "max of all-negative" (-1.0) s.max;
  Alcotest.(check (float 1e-9)) "min of all-negative" (-5.0) s.min

let test_stats_summarize_infinity () =
  (* Regression: min was seeded with Float.max_float, misreporting
     samples containing infinity; both folds now start from the first
     element. *)
  let s = Stats.summarize [ Float.infinity; 1.0; 2.0 ] in
  check_bool "max is +inf" true (s.max = Float.infinity);
  Alcotest.(check (float 1e-9)) "min unaffected" 1.0 s.min;
  let s' = Stats.summarize [ Float.neg_infinity; 1.0 ] in
  check_bool "min is -inf" true (s'.min = Float.neg_infinity);
  Alcotest.(check (float 1e-9)) "max unaffected" 1.0 s'.max

let test_stats_histogram_sorted () =
  (* Bucket order is part of the contract: ascending lower bounds,
     whatever the hash-table fold order — rendered distributions must be
     reproducible across runs and OCaml versions. *)
  let h = Stats.histogram ~bucket:5 [ 42; -3; 17; 0; 23; -11; 8; 42 ] in
  let bounds = List.map fst h in
  Alcotest.(check (list int)) "ascending bounds" (List.sort Int.compare bounds) bounds;
  Alcotest.(check (list (pair int int))) "pinned order"
    [ (-15, 1); (-5, 1); (0, 1); (5, 1); (15, 1); (20, 1); (40, 2) ]
    h

let test_stats_percentile_invalid () =
  let invalid p =
    Alcotest.check_raises
      (Printf.sprintf "p=%g rejected" p)
      (Invalid_argument "Stats.percentile: p must be in [0, 100]")
      (fun () -> ignore (Stats.percentile [ 1.0; 2.0 ] p))
  in
  invalid (-1.0);
  invalid 100.5;
  invalid Float.nan

let test_stats_p50_contract () =
  (* summarize.p50 is the nearest-rank median: for even counts, the lower
     of the two middle elements — not an interpolated midpoint. *)
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "p50 = nearest-rank median" 2.0 s.p50;
  Alcotest.(check (float 1e-9)) "p50 matches percentile 50"
    (Stats.percentile [ 1.0; 2.0; 3.0; 4.0 ] 50.0)
    s.p50;
  let odd = Stats.summarize [ 9.0; 1.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "odd-count median" 5.0 odd.p50

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "kernel"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "invalid args" `Quick test_rng_int_invalid;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "subset" `Quick test_rng_subset;
          qc prop_shuffle_permutation;
          qc prop_float_bounds;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
      ( "pidset",
        [
          qc prop_pidset_matches_lists;
          Alcotest.test_case "reads allocate nothing" `Quick test_pidset_reads_allocate_nothing;
        ] );
      ( "value",
        [
          Alcotest.test_case "max_of" `Quick test_value_max_of;
          Alcotest.test_case "pp_set" `Quick test_value_pp_set;
          Alcotest.test_case "decimal edges" `Quick test_value_decimal_edges;
          qc prop_value_decimal;
          Alcotest.test_case "decimal allocates nothing" `Quick
            test_value_decimal_allocates_nothing;
          Alcotest.test_case "pvalue order" `Quick test_pvalue_order;
          Alcotest.test_case "pvalue max_value" `Quick test_pvalue_max_value;
          Alcotest.test_case "subset_of_val_bot" `Quick test_pvalue_subset_of_val_bot;
          qc prop_pvalue_values_of_set;
        ] );
      ( "history",
        [
          Alcotest.test_case "roundtrip" `Quick test_history_roundtrip;
          Alcotest.test_case "interning" `Quick test_history_interning;
          Alcotest.test_case "prefix" `Quick test_history_prefix;
          Alcotest.test_case "prefixes" `Quick test_history_prefixes;
          qc prop_history_roundtrip;
          qc prop_history_prefix_model;
          qc prop_history_lexicographic;
          qc prop_history_digest_structural;
        ] );
      ( "counter-table",
        [
          Alcotest.test_case "get/set" `Quick test_ct_get_set;
          Alcotest.test_case "min_merge" `Quick test_ct_min_merge;
          Alcotest.test_case "bump_prefix_max" `Quick test_ct_bump_prefix_max;
          Alcotest.test_case "merge_bump keeps inbox order" `Quick test_ct_merge_bump_inbox_order;
          Alcotest.test_case "is_max" `Quick test_ct_is_max;
          Alcotest.test_case "max_binding" `Quick test_ct_max_binding;
          qc prop_ct_min_merge_model;
          Alcotest.test_case "hash-consed segments" `Quick test_ct_hash_consing;
          qc prop_ct_differential;
          qc prop_ct_differential_deep;
          qc prop_ct_max_merge_laws;
          qc prop_ct_digest_structural;
          Alcotest.test_case "digest allocates its pair only" `Quick test_ct_digest_allocation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summarize" `Quick test_stats_summarize;
          Alcotest.test_case "single sample" `Quick test_stats_single_sample;
          Alcotest.test_case "percentile extremes" `Quick test_stats_percentile_extremes;
          Alcotest.test_case "sparse histogram" `Quick test_stats_sparse_histogram;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "summarize all-negative" `Quick test_stats_summarize_negative;
          Alcotest.test_case "summarize infinities" `Quick test_stats_summarize_infinity;
          Alcotest.test_case "histogram sorted" `Quick test_stats_histogram_sorted;
          Alcotest.test_case "percentile rejects bad p" `Quick test_stats_percentile_invalid;
          Alcotest.test_case "p50 contract" `Quick test_stats_p50_contract;
          qc prop_stats_histogram_total;
        ] );
    ]
