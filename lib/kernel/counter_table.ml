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

  (* The least height whose root covers [body] slots. *)
  let rec height_for body h = if body <= cap h then h else height_for body (h + 1)

  (* The tree of [height] over the first [body] slots of the array that
     agrees with [s] below [from] and holds [a] from there on. *)
  let tree ~cons s ~from a ~body ~height =
    let at i = if i < from then get s i else a.(i - from) in
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
    build height 0

  (* The array that agrees with [s] below [from] (at most [length s]) and
     holds the first [m] slots of [a] from there on. Every full tree node
     built passes through [cons]. *)
  let splice ~cons s ~from a m =
    let len = from + m in
    let body = if len = 0 then 0 else (len - 1) land lnot mask in
    let height = if body = s.body then s.height else height_for body 0 in
    let root =
      if body = s.body && from >= body then s.root
      else if body = 0 then Leaf [||]
      else tree ~cons s ~from a ~body ~height
    in
    let n = len - body and kept = Int.max 0 (from - body) in
    let tail =
      if n = 0 then [||]
      else if kept = 0 then Array.sub a (body - from) n
      else if body = s.body then begin
        let t = Array.make n s.tail.(0) in
        Array.blit s.tail 0 t 0 kept;
        Array.blit a 0 t kept (n - kept);
        t
      end
      else Array.init n (fun o -> if o < kept then get s (body + o) else a.(o - kept))
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

module Runs = Map.Make (Int)

(* One entry of a table: a history, its intern id (read here without a
   call into [History]), its count (>= 1), [pm] the largest count over it
   and its prefixes in the table, and [rmax] the largest count over it
   and the entries before it. *)
type entry = { hist : History.t; id : int; count : int; pm : int; rmax : int }

(* An immutable table: its entries in one sequence, ascending by id, and
   [runs], which maps a run ({!History.run}) to the ascending ids of its
   entries. *)
type t = { entries : entry Seg.t; runs : int Seg.t Runs.t }

(* Full entry nodes are hash-consed in a domain-local weak set, so tables
   with equal content share them physically wherever they were built, and
   [Seg.shared] skips them. A full inner node's children are full, hence
   already canonical, which is what [equal] relies on. Histories compare
   physically: ids repeat across interner scopes, histories do not. *)
module Canonical = Weak.Make (struct
  type t = entry Seg.node

  let same e f =
    e == f || (e.hist == f.hist && e.count = f.count && e.pm = f.pm && e.rmax = f.rmax)

  let equal a b =
    match (a, b) with
    | Seg.Leaf x, Seg.Leaf y -> Array.length x = Array.length y && Array.for_all2 same x y
    | Seg.Node x, Seg.Node y -> Array.length x = Array.length y && Array.for_all2 ( == ) x y
    | Seg.Leaf _, Seg.Node _ | Seg.Node _, Seg.Leaf _ -> false

  (* Bucket index bits are low bits, so the folded sum is mixed once more:
     shifted runs like [c; c+1; ...] must not collide. *)
  let hash n =
    let rec sum = function
      | Seg.Leaf a -> Array.fold_left (fun h e -> (h * 65599) + (e.id * 31) + e.count) 0 a
      | Seg.Node cs -> Array.fold_left (fun h c -> (h * 65599) + sum c) 1 cs
    in
    Hashtbl.hash (sum n)
end)

let canonical_key = Domain.DLS.new_key (fun () -> Canonical.create 256)
let cons n = Canonical.merge (Domain.DLS.get canonical_key) n
let no_entry = { hist = History.empty; id = -1; count = 0; pm = 0; rmax = 0 }
let empty = { entries = Seg.empty; runs = Runs.empty }
let cardinal t = Seg.length t.entries
let peak t = if cardinal t = 0 then 0 else (Seg.get t.entries (cardinal t - 1)).rmax

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

(* Index of the first entry with an id >= [x]: a gallop back from the
   end, where Alg. 3's lookups land, then bisection. Every probe counts
   one visit. Top-level, so a search allocates no closure. *)
let rec bisect visits (s : entry Seg.t) x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    incr visits;
    if (Seg.get s mid).id < x then bisect visits s x (mid + 1) hi else bisect visits s x lo mid

(* Every slot from [hi] on holds at least [x]. *)
let rec gallop visits s x hi step =
  let lo = hi - step in
  if lo <= 0 then bisect visits s x 0 hi
  else begin
    incr visits;
    if (Seg.get s lo).id < x then bisect visits s x (lo + 1) hi
    else gallop visits s x lo (2 * step)
  end

let search visits s x = gallop visits s x (Seg.length s) 1

(* The same search over a run's ids, whose probes are index words and
   count no visit. (Reading the key through a function instead costs an
   indirect call per probe, a fifth of the kernels' time.) *)
let rec bisect_ids (s : int Seg.t) x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Seg.get s mid < x then bisect_ids s x (mid + 1) hi else bisect_ids s x lo mid

let rec gallop_ids s x hi step =
  let lo = hi - step in
  if lo <= 0 then bisect_ids s x 0 hi
  else if Seg.get s lo < x then bisect_ids s x (lo + 1) hi
  else gallop_ids s x lo (2 * step)

let search_ids s x = gallop_ids s x (Seg.length s) 1

(* The id of [h]'s deepest ancestor-or-self below id [below] in the run
   index, or -1: one search per run on [h]'s path, up to the first run
   holding one. *)
let rec deepest runs h below =
  let run = History.run h in
  let found =
    match Runs.find_opt run runs with
    | None -> -1
    | Some ids ->
      let k = search_ids ids (Int.min (History.id h + 1) below) - 1 in
      if k < 0 then -1 else Seg.get ids k
  in
  if found >= 0 || run = 0 then found else deepest runs (History.run_parent h) below

(* Fills [a] down from [k] with the ids of [ids] from [i] down to [from]
   and the changes [chg]: descending, [2 * id + 1] for an addition and
   [2 * id] for a removal. *)
let rec merge_changes a k ids i from chg =
  match chg with
  | c :: rest when i < from || Seg.get ids i <= c lsr 1 ->
    if c land 1 = 1 then begin
      a.(k) <- c lsr 1;
      merge_changes a (k - 1) ids i from rest
    end
    else merge_changes a k ids (i - 1) from rest
  | _ when i >= from ->
    a.(k) <- Seg.get ids i;
    merge_changes a (k - 1) ids (i - 1) from chg
  | _ -> ()

(* A run index being edited as two suffixes are walked in id order: the
   changes of one run are kept until a change of another run arrives,
   then applied with one rebuild of that run's ids from the batch's
   least id, [low]. [grow] is the batch's additions less its removals,
   and [chg] its changes, newest first. *)
type reindex = {
  mutable index : int Seg.t Runs.t;
  mutable run : int;
  mutable low : int;
  mutable grow : int;
  mutable chg : int list;
}

let flush r =
  match r.chg with
  | [] -> ()
  | _ :: _ ->
    let ids = Option.value ~default:Seg.empty (Runs.find_opt r.run r.index) in
    let n = Seg.length ids in
    let from = search_ids ids r.low in
    let len = n - from + r.grow in
    let a = Array.make len 0 in
    merge_changes a (len - 1) ids (n - 1) from r.chg;
    let ids = Seg.splice ~cons:Fun.id ids ~from a len in
    r.index <-
      (if Seg.length ids = 0 then Runs.remove r.run r.index else Runs.add r.run ids r.index);
    r.chg <- []

let change r h id ~added =
  let run = History.run h in
  if run <> r.run then begin
    flush r;
    r.run <- run;
    r.low <- id;
    r.grow <- 0
  end;
  r.grow <- (r.grow + if added then 1 else -1);
  r.chg <- ((2 * id) + Bool.to_int added) :: r.chg

(* The index of id [x] in the ascending [a] between [lo], whose id is at
   most [x], and [hi]. *)
let rec find_in a x lo hi =
  let mid = (lo + hi) lsr 1 in
  if lo + 1 >= hi then lo else if a.(mid).id <= x then find_in a x mid hi else find_in a x lo mid

(* [t] with its entries from slot [from] on replaced by the first [m] of
   [hists] and [counts] (ascending ids, counts >= 1): the one rebuild
   every edit goes through. Walking the old and the new suffix in id
   order gives the run index's additions and removals, applied run by
   run as they come. The new entries' [pm] and [rmax] then follow in id
   order, each from its deepest proper ancestor in the new index, since
   prefixes have smaller ids: the entries before [from] keep theirs. *)
let splice visits t ~from hists counts m =
  let n = cardinal t in
  visits := !visits + from + m - (from land lnot Seg.mask);
  let r = { index = t.runs; run = -1; low = 0; grow = 0; chg = [] } in
  let i = ref from and k = ref 0 in
  while !i < n || !k < m do
    let old = if !i < n then Seg.get t.entries !i else no_entry in
    let id = if !k < m then History.id hists.(!k) else max_int in
    if !i < n && old.id = id then begin
      incr i;
      incr k
    end
    else if !i < n && old.id < id then begin
      change r old.hist old.id ~added:false;
      incr i
    end
    else begin
      change r hists.(!k) id ~added:true;
      incr k
    end
  done;
  flush r;
  let runs = r.index in
  let out = Array.make m no_entry in
  let peak = ref (if from = 0 then 0 else (Seg.get t.entries (from - 1)).rmax) in
  for k = 0 to m - 1 do
    let h = hists.(k) and c = counts.(k) in
    let id = History.id h in
    let a = if id = 0 then -1 else deepest runs (History.parent h) max_int in
    let above =
      if a < 0 then 0
      else if k = 0 || a < out.(0).id then (Seg.get t.entries (search visits t.entries a)).pm
      else out.(find_in out a 0 k).pm
    in
    peak := Int.max !peak c;
    out.(k) <- { hist = h; id; count = c; pm = Int.max c above; rmax = !peak }
  done;
  { entries = Seg.splice ~cons t.entries ~from out m; runs }

let found t i id = i < cardinal t && (Seg.get t.entries i).id = id

let get t h =
  let visits = ref 0 in
  let id = History.id h in
  let i = search visits t.entries id in
  note !visits;
  if found t i id then (Seg.get t.entries i).count else 0

let set t h c =
  let visits = ref 0 in
  let id = History.id h in
  let i = search visits t.entries id in
  let hit = found t i id in
  let t' =
    if c <= 0 && not hit then t
    else
      let rest = if hit then i + 1 else i and add = if c > 0 then 1 else 0 in
      let m = cardinal t - rest + add in
      let hists = Array.make m h and counts = Array.make m c in
      for j = rest to cardinal t - 1 do
        let e = Seg.get t.entries j in
        hists.(j - rest + add) <- e.hist;
        counts.(j - rest + add) <- e.count
      done;
      splice visits t ~from:i hists counts m
  in
  note !visits;
  t'

(* Leading entries that [a] and [b] hold in shared segments. *)
let shared a b = Seg.shared a.entries b.entries

(* Line 8's scan: one pass over [t0]'s entries with a cursor per other
   table, in which an entry survives only if every cursor lands on its id,
   with the least count. The pass starts after the entries every table
   shares; entries before the first change are [t0]'s own. Returns the
   first changed slot ([cardinal t0] if none) and the merged count of
   every slot from it on (0 if dropped); nothing is rebuilt. *)
let intersect visits t0 others =
  let k = Array.length others and n0 = cardinal t0 in
  let start = Array.fold_left (fun s t -> Int.min s (shared t0 t)) n0 others in
  let cursors = Array.make k start in
  let first = ref n0 and merged = ref [||] in
  for i = start to n0 - 1 do
    let e = Seg.get t0.entries i in
    let c = ref e.count and j = ref 0 in
    while !c > 0 && !j < k do
      let t = others.(!j) in
      let n = cardinal t and p = ref cursors.(!j) in
      while !p < n && (Seg.get t.entries !p).id < e.id do incr p done;
      cursors.(!j) <- !p;
      (if !p = n then c := 0
       else
         let f = Seg.get t.entries !p in
         c := if f.id = e.id then Int.min !c f.count else 0);
      incr j
    done;
    if !c <> e.count && !first = n0 then begin
      first := i;
      merged := Array.make (n0 - i) 0
    end;
    if !first < n0 then !merged.(i - !first) <- !c
  done;
  visits := Array.fold_left (fun v p -> v + p - start) (!visits + n0 - start) cursors;
  (!first, !merged)

(* Line 9 against the merged table, which is [t0] below slot [first] and
   [merged] from there on: the new count of every bumped history, in id
   order, each bump seeing those before it in list order. The largest
   count over [h]'s prefixes is [t0]'s pm at [h]'s deepest ancestor-or-self
   below [first] (all of whose prefixes are there too), a merged count at
   an ancestor from [first] on, or an earlier bump of a prefix. *)
let bumps visits t0 ~first merged hs =
  let n0 = cardinal t0 in
  let below = if first = n0 then max_int else (Seg.get t0.entries first).id in
  List.fold_left
    (fun bumped h ->
      let id = History.id h and a = deepest t0.runs h below in
      let m = if a < 0 then 0 else (Seg.get t0.entries (search visits t0.entries a)).pm in
      let m = ref m and i = ref first in
      while !i < n0 && (Seg.get t0.entries !i).id <= id do
        let c = merged.(!i - first) in
        if c > !m && History.is_prefix ~prefix:(Seg.get t0.entries !i).hist h then m := c;
        incr i
      done;
      visits := !visits + !i - first;
      let m =
        List.fold_left
          (fun m (_, p, c) -> if c > m && History.is_prefix ~prefix:p h then c else m)
          !m bumped
      in
      (id, h, m + 1) :: List.filter (fun (id', _, _) -> id' <> id) bumped)
    [] hs
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)

let merge_bump ts hs =
  let ops = Domain.DLS.get ops_key in
  ops.min_merges <- ops.min_merges + 1;
  ops.prefix_bumps <- ops.prefix_bumps + List.length hs;
  let t0, others =
    match ts with
    | [] -> (empty, [||])
    | t0 :: ts -> (t0, Array.of_list (List.filter (fun t -> t != t0) ts))
  in
  let visits = ref 0 and n0 = cardinal t0 in
  let first, merged = if Array.length others = 0 then (n0, [||]) else intersect visits t0 others in
  let bumped = bumps visits t0 ~first merged hs in
  let t =
    match bumped with
    | [] when first = n0 -> t0
    | _ ->
      let from =
        match bumped with
        | (id, _, _) :: _ -> Int.min first (search visits t0.entries id)
        | [] -> first
      in
      (* The merged entries from [from] on, with the bumps merged in. *)
      let ub = n0 - from + List.length bumped in
      let hists = Array.make ub History.empty and counts = Array.make ub 0 in
      let i = ref from and k = ref 0 and rest = ref bumped in
      while !i < n0 || match !rest with [] -> false | _ :: _ -> true do
        let e = if !i < n0 then Seg.get t0.entries !i else no_entry in
        match !rest with
        | (id, h, c) :: more when !i = n0 || id <= e.id ->
          hists.(!k) <- h;
          counts.(!k) <- c;
          incr k;
          if id = e.id then incr i;
          rest := more
        | _ ->
          let c = if !i < first then e.count else merged.(!i - first) in
          if c > 0 then begin
            hists.(!k) <- e.hist;
            counts.(!k) <- c;
            incr k
          end;
          incr i
      done;
      splice visits t0 ~from hists counts !k
  in
  note !visits;
  t

(* Sorted union of two tables keeping the larger count. *)
let union_max a b =
  let na = cardinal a and nb = cardinal b in
  if nb = 0 || a == b then a
  else if na = 0 then b
  else
    let visits = ref (na + nb) in
    let hists = Array.make (na + nb) History.empty and counts = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na || !j < nb do
      let x = if !i < na then Seg.get a.entries !i else no_entry
      and y = if !j < nb then Seg.get b.entries !j else no_entry in
      let from_a = !j = nb || (!i < na && x.id <= y.id)
      and from_b = !i = na || (!j < nb && y.id <= x.id) in
      hists.(!k) <- (if from_a then x.hist else y.hist);
      counts.(!k) <- Int.max (if from_a then x.count else 0) (if from_b then y.count else 0);
      if from_a then incr i;
      if from_b then incr j;
      incr k
    done;
    let t = splice visits empty ~from:0 hists counts !k in
    note !visits;
    t

let max_merge ts = List.fold_left union_max empty ts
let is_max t h = peak t = 0 || get t h >= peak t

let bindings t =
  List.init (cardinal t) (fun i ->
      let e = Seg.get t.entries i in
      (e.hist, e.count))

let max_binding t =
  let peak = peak t in
  List.fold_left
    (fun best (h, c) ->
      match best with
      | Some (h', _) when c < peak || History.compare_lexicographic h' h <= 0 -> best
      | Some _ | None -> if c = peak then Some (h, c) else best)
    None (bindings t)

(* Each entry hashes its history's digest with its count, and the sums
   of the entry hashes do not depend on the order they are added in. *)
let digest t =
  let mix = Hashing.Fast.mix in
  let s1 = ref 0 and s2 = ref 0 in
  for i = 0 to cardinal t - 1 do
    let e = Seg.get t.entries i in
    let a, b = History.digest e.hist in
    s1 := !s1 + mix (a + (e.count * 0x5851f42d4c957f2d));
    s2 := !s2 + mix (b lxor (e.count * 0x14057b7ef767814f))
  done;
  (!s1, !s2)

(* The first slot from [i] on where [a] and [b] differ, with the order
   there: by id, then by count; a table that ends first is smaller. *)
let rec differ a b i =
  if i = cardinal a then (i, if i = cardinal b then 0 else -1)
  else if i = cardinal b then (i, 1)
  else
    let x = Seg.get a.entries i and y = Seg.get b.entries i in
    if x == y then differ a b (i + 1)
    else
      let c = Int.compare x.id y.id in
      if c <> 0 then (i, c)
      else
        let c = Int.compare x.count y.count in
        if c <> 0 then (i, c) else differ a b (i + 1)

let compare a b =
  if a == b then 0
  else
    let start = shared a b in
    let stop, c = differ a b start in
    note (stop - start);
    c

let equal a b = compare a b = 0
