(* A persistent array stored in segments of [size] slots, every one full
   but the last. Segments (and, up to 16 k slots, the segment index) fit
   the minor heap, so an edit does not allocate straight into the major
   heap, whose dead blocks wait for the next major slice; and [rebuild]
   shares every segment that lies wholly before the first edited slot.
   Alg. 3 edits land at the tail (new histories get the largest ids), so
   an edit copies about one segment, not the table. *)
module Seg = struct
  let bits = 6
  let size = 1 lsl bits

  type 'a t = { segs : 'a array array; len : int }

  let empty = { segs = [||]; len = 0 }
  let length s = s.len
  let get s i = s.segs.(i lsr bits).(i land (size - 1))

  (* The array of length [len] that agrees with [s] below [from] and holds
     [f i] at every [i >= from]; [f] is called on ascending [i]. Every slot
     from the start of [from]'s segment on is in a fresh segment. *)
  let rebuild s ~from ~len f =
    let nsegs = (len + size - 1) lsr bits in
    let kept = Int.min (from lsr bits) nsegs in
    let segs = Array.make nsegs [||] in
    Array.blit s.segs 0 segs 0 kept;
    for k = kept to nsegs - 1 do
      let base = k lsl bits in
      segs.(k) <-
        Array.init (Int.min size (len - base)) (fun o ->
            let i = base + o in
            if i < from then get s i else f i)
    done;
    { segs; len }

  let of_array a = rebuild empty ~from:0 ~len:(Array.length a) (Array.get a)

  (* Overwrites slot [i] of a [rebuild] result; only for slots that
     [rebuild] made fresh. *)
  let set_fresh s i x = s.segs.(i lsr bits).(i land (size - 1)) <- x
  let fold f acc s = Array.fold_left (Array.fold_left f) acc s.segs

  (* How many leading slots [a] and [b] hold in physically shared
     segments, and so hold equal. *)
  let shared a b =
    let n = Int.min (Array.length a.segs) (Array.length b.segs) in
    let rec go k = if k < n && a.segs.(k) == b.segs.(k) then go (k + 1) else k in
    Int.min (go 0 lsl bits) (Int.min a.len b.len)

  (* [s] with [xs.(j)] inserted before slot [pos.(j)], rebuilt from
     [from]; [pos] is ascending and [from <= pos.(0)]. *)
  let insert s ~from pos xs =
    let j = ref 0 in
    rebuild s ~from ~len:(s.len + Array.length xs) (fun i ->
        if !j < Array.length xs && i = pos.(!j) + !j then begin
          incr j;
          xs.(!j - 1)
        end
        else get s (i - !j))

  let remove s i = rebuild s ~from:i ~len:(s.len - 1) (fun k -> get s (k + 1))
end

(* An immutable table sorted by intern id: [ids], [counts] and [hists] run
   in parallel, every stored count is >= 1 (absent means 0), and [peak]
   caches the largest count (0 when empty). *)
type t = { ids : int Seg.t; counts : int Seg.t; hists : History.t Seg.t; peak : int }

let empty = { ids = Seg.empty; counts = Seg.empty; hists = Seg.empty; peak = 0 }
let cardinal t = Seg.length t.ids

(* Index of the first id >= [id]. *)
let search ids id =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if Seg.get ids mid < id then go (mid + 1) hi else go lo mid
  in
  go 0 (Seg.length ids)

let found t i id = i < cardinal t && Seg.get t.ids i = id

let get t h =
  let id = History.id h in
  let i = search t.ids id in
  if found t i id then Seg.get t.counts i else 0

let peak_of counts = Seg.fold Int.max 0 counts

let set t h c =
  let id = History.id h in
  let i = search t.ids id in
  if found t i id then
    if c <= 0 then
      let counts = Seg.remove t.counts i in
      { ids = Seg.remove t.ids i; counts; hists = Seg.remove t.hists i; peak = peak_of counts }
    else
      let counts =
        Seg.rebuild t.counts ~from:i ~len:(cardinal t) (fun k ->
            if k = i then c else Seg.get t.counts k)
      in
      { t with counts; peak = peak_of counts }
  else if c <= 0 then t
  else
    let pos = [| i |] in
    {
      ids = Seg.insert t.ids ~from:i pos [| id |];
      counts = Seg.insert t.counts ~from:i pos [| c |];
      hists = Seg.insert t.hists ~from:i pos [| h |];
      peak = Int.max t.peak c;
    }

(* Operation counts, read as per-run deltas by the observability layer.
   Domain-local so parallel simulations never race on them. *)
type ops = { mutable min_merges : int; mutable prefix_bumps : int }

let ops_key : ops Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { min_merges = 0; prefix_bumps = 0 })

let min_merge_ops () = (Domain.DLS.get ops_key).min_merges
let prefix_bump_ops () = (Domain.DLS.get ops_key).prefix_bumps

(* Leading entries that [a] and [b] hold in shared segments. *)
let shared a b = Int.min (Seg.shared a.ids b.ids) (Seg.shared a.counts b.counts)

(* One pass over [t0]'s entries with a cursor per other table: an entry
   survives only if every cursor lands on its id, with the least count.
   The pass starts after the entries every table shares; entries before
   the first change are [t0]'s own and stay shared. *)
let intersect t0 others =
  let k = Array.length others and n0 = cardinal t0 in
  let start = Array.fold_left (fun s t -> Int.min s (shared t0 t)) n0 others in
  let cursors = Array.make k start in
  let first = ref n0 and srcs = ref [] and cs = ref [] and dropped = ref false in
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
    if !c = 0 then dropped := true
    else if !first < n0 then begin
      srcs := i :: !srcs;
      cs := !c :: !cs
    end
  done;
  if !first = n0 then t0
  else
    let from = !first in
    let srcs = Array.of_list (List.rev !srcs) and cs = Array.of_list (List.rev !cs) in
    let len = from + Array.length cs in
    let counts = Seg.rebuild t0.counts ~from ~len (fun i -> cs.(i - from)) in
    let keep s = Seg.rebuild s ~from ~len (fun i -> Seg.get s srcs.(i - from)) in
    if !dropped then
      { ids = keep t0.ids; counts; hists = keep t0.hists; peak = peak_of counts }
    else { t0 with counts; peak = peak_of counts }

let min_merge ts =
  let ops = Domain.DLS.get ops_key in
  ops.min_merges <- ops.min_merges + 1;
  match ts with
  | [] -> empty
  | t0 :: ts ->
    let others = Array.of_list (List.filter (fun t -> t != t0) ts) in
    if Array.length others = 0 then t0 else intersect t0 others

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
    let entries = Array.of_list (go 0 0 []) in
    {
      ids = Seg.of_array (Array.map (fun (t, i, _) -> id t i) entries);
      counts = Seg.of_array (Array.map (fun (_, _, c) -> c) entries);
      hists = Seg.of_array (Array.map (fun (t, i, _) -> Seg.get t.hists i) entries);
      peak = Int.max a.peak b.peak;
    }

let max_merge ts = List.fold_left union_max empty ts

(* Max of [counts] over [p] (whose id is [id]) and its prefixes, reading
   only indices <= [j] (every entry above [j] has a larger id). Prefix ids
   strictly decrease toward the root, so one downward pass over [ids]
   serves the whole chain; the walk stops once it reaches [peak]. *)
let rec prefix_max ids counts peak p id j acc =
  if j < 0 || acc >= peak then acc
  else
    let e = Seg.get ids j in
    if e > id then prefix_max ids counts peak p id (j - 1) acc
    else
      let acc = if e = id then Int.max acc (Seg.get counts j) else acc in
      if id = 0 then acc
      else
        let p = History.parent p in
        prefix_max ids counts peak p (History.id p) j acc

let bump_all t hs =
  let ops = Domain.DLS.get ops_key in
  ops.prefix_bumps <- ops.prefix_bumps + List.length hs;
  match hs with
  | [] -> t
  | _ :: _ ->
    (* Add every new key with count 0 (which reads as absent), rebuilding
       the counts from the first slot any bump touches; then run the bumps
       in order on those fresh slots. *)
    let fresh =
      Array.of_list (List.sort_uniq History.compare (List.filter (fun h -> get t h = 0) hs))
    in
    let pos = Array.map (fun h -> search t.ids (History.id h)) fresh in
    let from_keys = if Array.length fresh = 0 then cardinal t else pos.(0) in
    let from =
      List.fold_left (fun from h -> Int.min from (search t.ids (History.id h))) from_keys hs
    in
    let ids, hists =
      if Array.length fresh = 0 then (t.ids, t.hists)
      else
        ( Seg.insert t.ids ~from:from_keys pos (Array.map History.id fresh),
          Seg.insert t.hists ~from:from_keys pos fresh )
    in
    let counts = Seg.insert t.counts ~from pos (Array.make (Array.length fresh) 0) in
    let peak =
      List.fold_left
        (fun peak h ->
          let id = History.id h in
          let i = search ids id in
          let own = Seg.get counts i in
          let m =
            if id = 0 then own
            else
              let p = History.parent h in
              prefix_max ids counts peak p (History.id p) (i - 1) own
          in
          Seg.set_fresh counts i (m + 1);
          Int.max peak (m + 1))
        t.peak hs
    in
    { ids; counts; hists; peak }

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

let compare a b =
  let na = cardinal a and nb = cardinal b in
  let rec go i =
    if i = na then if i = nb then 0 else -1
    else if i = nb then 1
    else
      let c = Int.compare (Seg.get a.ids i) (Seg.get b.ids i) in
      if c <> 0 then c
      else
        let c = Int.compare (Seg.get a.counts i) (Seg.get b.counts i) in
        if c <> 0 then c else go (i + 1)
  in
  if a == b then 0 else go (shared a b)

let equal a b = compare a b = 0

let pp ppf t =
  let pp_binding ppf (h, c) = Format.fprintf ppf "%a↦%d" History.pp h c in
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_binding)
    (bindings t)
