(* A persistent array: the slots below [body], a multiple of [size], sit
   in the full leaves of a radix tree whose inner nodes have [size]
   children; the last 1 to [size] slots sit in [tail]. An edit copies the
   tail, plus, when it reaches below [body], the tree nodes from its first
   changed slot on, sharing every node wholly before it. Alg. 3's edits
   land at the end, since new histories get the largest ids, so most copy
   the tail alone. No node or tail exceeds [size] words, so no edit
   allocates straight into the major heap however long the array (OCaml
   allocates an array of more than 256 words there). *)
module Seg = struct
  let bits = 5
  let size = 1 lsl bits
  let mask = size - 1

  type 'a node = Leaf of 'a array | Node of 'a node array

  (* The root of a tree of [height] h covers [cap h] slots. *)
  type 'a t = { root : 'a node; height : int; body : int; tail : 'a array }

  let cap h = 1 lsl (bits * (h + 1))
  let empty = { root = Leaf [||]; height = 0; body = 0; tail = [||] }
  let length s = s.body + Array.length s.tail

  (* A top-level walk, so a read allocates no closure. *)
  let rec get_in n i sh =
    match n with Leaf a -> a.(i land mask) | Node cs -> get_in cs.((i lsr sh) land mask) i (sh - bits)

  let get s i = if i >= s.body then s.tail.(i - s.body) else get_in s.root i (s.height * bits)

  (* The tree node of height [h] whose first slot is [base]; it must exist. *)
  let node_at s h base =
    let rec go n k =
      match n with
      | Node cs when k > h -> go cs.((base lsr (k * bits)) land mask) (k - 1)
      | n -> n
    in
    go s.root s.height

  (* The array of length [len] that agrees with [s] below [from] (at most
     [length s]) and holds [f i] at every [i >= from]; [f] is called on
     ascending [i]. Every full tree node built passes through [cons]. *)
  let rebuild ?(cons = Fun.id) s ~from ~len f =
    let body = if len = 0 then 0 else (len - 1) land lnot mask in
    let at i = if i < from then get s i else f i in
    let tfrom = Int.min from (Int.min s.body body) in
    let rec build h base =
      if base + cap h <= tfrom then node_at s h base
      else
        let n =
          if h = 0 then Leaf (Array.init size (fun o -> at (base + o)))
          else
            (* [kept] leading children come from [s]'s node. *)
            let sub = cap (h - 1) in
            let old = if base < tfrom && h <= s.height then node_at s h base else Leaf [||] in
            let kept =
              match old with
              | Node cs -> Int.min (Array.length cs) ((tfrom - base) / sub)
              | Leaf _ -> 0
            in
            let a = Array.make ((Int.min (cap h) (body - base) + sub - 1) / sub) old in
            (match old with Node cs -> Array.blit cs 0 a 0 kept | Leaf _ -> ());
            for c = kept to Array.length a - 1 do
              a.(c) <- build (h - 1) (base + (c * sub))
            done;
            Node a
        in
        if base + cap h <= body then cons n else n
    in
    let rec height h = if body <= cap h then h else height (h + 1) in
    let height = height 0 in
    let root =
      if body = s.body && from >= body then s.root
      else if body = 0 then Leaf [||]
      else build height 0
    in
    let m = len - body and kept = Int.max 0 (from - body) in
    let tail =
      if kept = 0 || body <> s.body then Array.init m (fun o -> at (body + o))
      else begin
        let a = Array.make m s.tail.(0) in
        Array.blit s.tail 0 a 0 kept;
        for i = body + kept to len - 1 do
          a.(i - body) <- f i
        done;
        a
      end
    in
    { root; height; body; tail }

  (* How many leading slots [a] and [b] hold in physically shared nodes,
     and so hold equal. *)
  let shared a b =
    let rec down n k h = match n with Node cs when k > h -> down cs.(0) (k - 1) h | n -> n in
    let rec go h x y base =
      if x == y then base + cap h
      else
        match (x, y) with
        | Node xs, Node ys ->
          let sub = cap (h - 1) and n = Int.min (Array.length xs) (Array.length ys) in
          let rec kids c =
            if c = n then base + (c * sub)
            else
              let upto = go (h - 1) xs.(c) ys.(c) (base + (c * sub)) in
              if upto = base + ((c + 1) * sub) then kids (c + 1) else upto
          in
          kids 0
        | _ -> base
    in
    let h = Int.min a.height b.height in
    let body = go h (down a.root a.height h) (down b.root b.height h) 0 in
    let body = Int.min body (Int.min a.body b.body) in
    if body = a.body && body = b.body && a.tail == b.tail then length a else body
end

(* Full int nodes are hash-consed in a domain-local weak set, so tables
   with equal content share them physically wherever they were built, and
   [Seg.shared] skips them. A full inner node's children are full, hence
   already canonical, which is what [equal] relies on. The set outlives
   interner scopes; sharing across them is harmless, since nodes are
   immutable and equal by content. *)
module Canonical = Weak.Make (struct
  type t = int Seg.node

  let equal a b =
    match (a, b) with
    | Seg.Leaf x, Seg.Leaf y -> Array.length x = Array.length y && Array.for_all2 Int.equal x y
    | Seg.Node x, Seg.Node y -> Array.length x = Array.length y && Array.for_all2 ( == ) x y
    | Seg.Leaf _, Seg.Node _ | Seg.Node _, Seg.Leaf _ -> false

  (* Bucket index bits are low bits, so the folded sum is mixed once more:
     shifted runs like [c; c+1; ...] must not collide. *)
  let hash n =
    let rec sum = function
      | Seg.Leaf a -> Array.fold_left (fun h x -> (h * 65599) + x) 0 a
      | Seg.Node cs -> Array.fold_left (fun h c -> (h * 65599) + sum c) 1 cs
    in
    Hashtbl.hash (sum n)
end)

let canonical_key = Domain.DLS.new_key (fun () -> Canonical.create 256)
let cons n = Canonical.merge (Domain.DLS.get canonical_key) n
let ints s ~from ~len f = Seg.rebuild ~cons s ~from ~len f

module Runs = Map.Make (Int)

(* An immutable table sorted by intern id. [ids], [counts] and [hists] run
   in parallel and every stored count is >= 1 (absent means 0). [pm] holds
   the largest count over each entry and its prefixes in the table, and
   [rmax] the largest count over each entry and the entries before it;
   [peak] is the largest count (0 when empty). [runs] maps a run
   ({!History.run}) to the ascending ids of its entries. *)
type t = {
  ids : int Seg.t;
  counts : int Seg.t;
  hists : History.t Seg.t;
  pm : int Seg.t;
  rmax : int Seg.t;
  runs : int Seg.t Runs.t;
  peak : int;
}

let empty =
  {
    ids = Seg.empty;
    counts = Seg.empty;
    hists = Seg.empty;
    pm = Seg.empty;
    rmax = Seg.empty;
    runs = Runs.empty;
    peak = 0;
  }

let cardinal t = Seg.length t.ids

(* Operation counts, read as per-run deltas by the observability layer.
   Domain-local so parallel simulations never race on them. [slots] counts
   the entries the kernels scan, copy or probe (not index words); each call
   adds its visits once, through [note]. *)
type ops = { mutable min_merges : int; mutable prefix_bumps : int; mutable slots : int }

let ops_key : ops Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { min_merges = 0; prefix_bumps = 0; slots = 0 })

let min_merge_ops () = (Domain.DLS.get ops_key).min_merges
let prefix_bump_ops () = (Domain.DLS.get ops_key).prefix_bumps
let slot_visits () = (Domain.DLS.get ops_key).slots

let note visits =
  let ops = Domain.DLS.get ops_key in
  ops.slots <- ops.slots + visits

(* Index of the first element >= [x] of the ascending [s]: a gallop back
   from the end, where Alg. 3's lookups land, then bisection. Every probe
   counts one visit, and compares two ints inline. *)
let search visits (s : int Seg.t) (x : int) =
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      incr visits;
      if Seg.get s mid < x then bisect (mid + 1) hi else bisect lo mid
  in
  (* Every slot from [hi] on holds at least [x]. *)
  let rec gallop hi step =
    let lo = hi - step in
    if lo <= 0 then bisect 0 hi
    else begin
      incr visits;
      if Seg.get s lo < x then bisect (lo + 1) hi else gallop lo (2 * step)
    end
  in
  gallop (Seg.length s) 1

(* The id of [h]'s deepest ancestor-or-self in the table, or -1: one
   search per run on [h]'s path, up to the first run holding one. *)
let rec deepest runs h =
  let run = History.run h in
  let found =
    match Runs.find_opt run runs with
    | None -> -1
    | Some ids ->
      let k = search (ref 0) ids (History.id h + 1) - 1 in
      if k < 0 then -1 else Seg.get ids k
  in
  if found >= 0 || run = 0 then found else deepest runs (History.run_parent h)

(* [ids] with the additions and removals [chg] (ascending [(id, added)])
   applied: one rebuild from the first change. *)
let edit_run ids chg =
  let n = Seg.length ids in
  let from = search (ref 0) ids (fst (List.hd chg)) in
  let rec go i chg acc =
    match chg with
    | (id, added) :: rest when i = n || Seg.get ids i >= id ->
      if added then go i rest (id :: acc) else go (i + 1) rest acc
    | _ when i < n -> go (i + 1) chg (Seg.get ids i :: acc)
    | _ -> Array.of_list (List.rev acc)
  in
  let tail = go from chg [] in
  ints ids ~from ~len:(from + Array.length tail) (fun i -> tail.(i - from))

(* The run index after the entries [t] holds from [from] on are replaced
   by [hists]: the ids in only one of the two suffixes change, per run. *)
let reindex t ~from hists =
  let n = cardinal t and s = Array.length hists in
  let rec diff i j acc =
    let old_id = if i < n then Seg.get t.ids i else max_int in
    let new_id = if j < s then History.id hists.(j) else max_int in
    if i = n && j = s then acc
    else if old_id = new_id then diff (i + 1) (j + 1) acc
    else if old_id < new_id then
      diff (i + 1) j ((History.run (Seg.get t.hists i), (old_id, false)) :: acc)
    else diff i (j + 1) ((History.run hists.(j), (new_id, true)) :: acc)
  in
  let rec apply runs = function
    | [] -> runs
    | (run, _) :: _ as chg ->
      let mine, rest = List.partition (fun (r, _) -> r = run) chg in
      let ids = Option.value ~default:Seg.empty (Runs.find_opt run runs) in
      let ids = edit_run ids (List.map snd mine) in
      apply (if Seg.length ids = 0 then Runs.remove run runs else Runs.add run ids runs) rest
  in
  apply t.runs (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev (diff from 0 [])))

(* [t] with its entries from slot [from] on replaced by [ids], [counts] and
   [hists] (ascending ids, counts >= 1). Entries before [from] keep their
   [pm] and [rmax], since their prefixes have smaller ids; the new ones
   are computed in id order, each from its deepest proper ancestor. *)
let splice visits t ~from ids counts hists =
  let s = Array.length ids in
  let len = from + s in
  visits := !visits + len - (from land lnot Seg.mask);
  let ids' = ints t.ids ~from ~len (fun i -> ids.(i - from)) in
  let runs = reindex t ~from hists in
  let pm = Array.make s 0 and rmax = Array.make s 0 in
  let peak = ref (if from = 0 then 0 else Seg.get t.rmax (from - 1)) in
  for k = 0 to s - 1 do
    let h = hists.(k) in
    let a = if History.id h = 0 then -1 else deepest runs (History.parent h) in
    let above =
      if a < 0 then 0
      else
        let j = search visits ids' a in
        if j < from then Seg.get t.pm j else pm.(j - from)
    in
    pm.(k) <- Int.max counts.(k) above;
    peak := Int.max !peak counts.(k);
    rmax.(k) <- !peak
  done;
  let column s a = ints s ~from ~len (fun i -> a.(i - from)) in
  {
    ids = ids';
    counts = column t.counts counts;
    hists = Seg.rebuild t.hists ~from ~len (fun i -> hists.(i - from));
    pm = column t.pm pm;
    rmax = column t.rmax rmax;
    runs;
    peak = !peak;
  }

let found t i id = i < cardinal t && Seg.get t.ids i = id

let get t h =
  let visits = ref 0 in
  let id = History.id h in
  let i = search visits t.ids id in
  note !visits;
  if found t i id then Seg.get t.counts i else 0

(* The entries of [t] from [i] on, as parallel arrays. *)
let suffix t i =
  let n = cardinal t - i in
  ( Array.init n (fun k -> Seg.get t.ids (i + k)),
    Array.init n (fun k -> Seg.get t.counts (i + k)),
    Array.init n (fun k -> Seg.get t.hists (i + k)) )

let set t h c =
  let visits = ref 0 in
  let id = History.id h in
  let i = search visits t.ids id in
  let hit = found t i id in
  let t' =
    if c <= 0 && not hit then t
    else
      let ids, counts, hists = suffix t (if hit then i + 1 else i) in
      let add a x = if c > 0 then Array.append [| x |] a else a in
      splice visits t ~from:i (add ids id) (add counts c) (add hists h)
  in
  note !visits;
  t'

(* Leading entries that [a] and [b] hold in shared segments. *)
let shared a b = Int.min (Seg.shared a.ids b.ids) (Seg.shared a.counts b.counts)

(* One pass over [t0]'s entries with a cursor per other table: an entry
   survives only if every cursor lands on its id, with the least count.
   The pass starts after the entries every table shares; entries before
   the first change are [t0]'s own and stay shared. *)
let intersect visits t0 others =
  let k = Array.length others and n0 = cardinal t0 in
  let start = Array.fold_left (fun s t -> Int.min s (shared t0 t)) n0 others in
  let cursors = Array.make k start in
  let first = ref n0 and srcs = ref [] and cs = ref [] in
  for i = start to n0 - 1 do
    let id = Seg.get t0.ids i and c0 = Seg.get t0.counts i in
    let c = ref c0 and j = ref 0 in
    while !c > 0 && !j < k do
      let t = others.(!j) in
      let n = cardinal t and p = ref cursors.(!j) in
      while !p < n && Seg.get t.ids !p < id do incr p done;
      cursors.(!j) <- !p;
      if !p < n && Seg.get t.ids !p = id then c := Int.min !c (Seg.get t.counts !p)
      else c := 0;
      incr j
    done;
    if !c <> c0 && !first = n0 then first := i;
    if !c > 0 && !first < n0 then begin
      srcs := i :: !srcs;
      cs := !c :: !cs
    end
  done;
  visits := Array.fold_left (fun v p -> v + p - start) (!visits + n0 - start) cursors;
  if !first = n0 then t0
  else
    let srcs = Array.of_list (List.rev !srcs) in
    splice visits t0 ~from:!first
      (Array.map (Seg.get t0.ids) srcs)
      (Array.of_list (List.rev !cs))
      (Array.map (Seg.get t0.hists) srcs)

let min_merge ts =
  let ops = Domain.DLS.get ops_key in
  ops.min_merges <- ops.min_merges + 1;
  match ts with
  | [] -> empty
  | t0 :: ts ->
    let others = Array.of_list (List.filter (fun t -> t != t0) ts) in
    if Array.length others = 0 then t0
    else
      let visits = ref 0 in
      let t = intersect visits t0 others in
      note !visits;
      t

(* Sorted union of two tables keeping the larger count. *)
let union_max a b =
  let na = cardinal a and nb = cardinal b in
  let id t i = Seg.get t.ids i and count t i = Seg.get t.counts i in
  let rec go i j acc =
    if i = na && j = nb then List.rev acc
    else if j = nb || (i < na && id a i < id b j) then go (i + 1) j ((a, i, count a i) :: acc)
    else if i = na || id b j < id a i then go i (j + 1) ((b, j, count b j) :: acc)
    else go (i + 1) (j + 1) ((a, i, Int.max (count a i) (count b j)) :: acc)
  in
  if nb = 0 || a == b then a
  else if na = 0 then b
  else
    let visits = ref (na + nb) in
    let entries = Array.of_list (go 0 0 []) in
    let t =
      splice visits empty ~from:0
        (Array.map (fun (t, i, _) -> id t i) entries)
        (Array.map (fun (_, _, c) -> c) entries)
        (Array.map (fun (t, i, _) -> Seg.get t.hists i) entries)
    in
    note !visits;
    t

let max_merge ts = List.fold_left union_max empty ts

let bump_all t hs =
  let ops = Domain.DLS.get ops_key in
  ops.prefix_bumps <- ops.prefix_bumps + List.length hs;
  match hs with
  | [] -> t
  | _ :: _ ->
    let visits = ref 0 in
    (* The new count of every bumped history, each bump seeing the ones
       before it: the largest count over [h]'s prefixes is [pm] at its
       deepest ancestor-or-self in [t], or an earlier bump of a prefix. *)
    let bumped =
      List.fold_left
        (fun bumped h ->
          let a = deepest t.runs h in
          let m = if a < 0 then 0 else Seg.get t.pm (search visits t.ids a) in
          let m =
            List.fold_left
              (fun m (p, c) -> if c > m && History.is_prefix ~prefix:p h then c else m)
              m bumped
          in
          (h, m + 1) :: List.filter (fun (p, _) -> not (History.equal p h)) bumped)
        [] hs
      |> List.sort (fun (h, _) (h', _) -> History.compare h h')
    in
    let from = search visits t.ids (History.id (fst (List.hd bumped))) in
    let n = cardinal t in
    (* Merge the bumps into [t]'s entries from [from] on. *)
    let rec merge i bumped acc =
      match bumped with
      | (h, c) :: rest when i = n || History.id h <= Seg.get t.ids i ->
        let i = if found t i (History.id h) then i + 1 else i in
        merge i rest ((History.id h, c, h) :: acc)
      | _ when i < n ->
        merge (i + 1) bumped ((Seg.get t.ids i, Seg.get t.counts i, Seg.get t.hists i) :: acc)
      | _ -> Array.of_list (List.rev acc)
    in
    let entries = merge from bumped [] in
    let t =
      splice visits t ~from
        (Array.map (fun (id, _, _) -> id) entries)
        (Array.map (fun (_, c, _) -> c) entries)
        (Array.map (fun (_, _, h) -> h) entries)
    in
    note !visits;
    t

let bump_prefix_max t h = bump_all t [ h ]
let is_max t h = t.peak = 0 || get t h >= t.peak

let bindings t = List.init (cardinal t) (fun i -> (Seg.get t.hists i, Seg.get t.counts i))

let max_binding t =
  List.fold_left
    (fun best (h, c) ->
      match best with
      | Some (h', _) when c < t.peak || History.compare_lexicographic h' h <= 0 -> best
      | Some _ | None -> if c = t.peak then Some (h, c) else best)
    None (bindings t)

(* Each entry hashes its history's digest with its count, and the sums
   of the entry hashes do not depend on the order they are added in. *)
let digest t =
  let mix = Hashing.Fast.mix in
  let s1 = ref 0 and s2 = ref 0 in
  for i = 0 to cardinal t - 1 do
    let a, b = History.digest (Seg.get t.hists i) and c = Seg.get t.counts i in
    s1 := !s1 + mix (a + (c * 0x5851f42d4c957f2d));
    s2 := !s2 + mix (b lxor (c * 0x14057b7ef767814f))
  done;
  (!s1, !s2)

let compare a b =
  let na = cardinal a and nb = cardinal b in
  let rec go i =
    if i = na then (i, if i = nb then 0 else -1)
    else if i = nb then (i, 1)
    else
      let c = Int.compare (Seg.get a.ids i) (Seg.get b.ids i) in
      if c <> 0 then (i, c)
      else
        let c = Int.compare (Seg.get a.counts i) (Seg.get b.counts i) in
        if c <> 0 then (i, c) else go (i + 1)
  in
  if a == b then 0
  else
    let start = shared a b in
    let stop, c = go start in
    note (stop - start);
    c

let equal a b = compare a b = 0
