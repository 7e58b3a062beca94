(* [run] is the id of the history's run head; [Snoc]'s last field is the
   parent of that head (the root's run has none; see [run_parent]).
   [digest] is a function of the value sequence alone. *)
type t = { id : int; len : int; run : int; node : node; digest : int * int }

and node = Root | Snoc of t * Value.t * t

(* Intern table: (parent id, value) -> history.  Append-only within a
   scope, so ids are stable for the lifetime of the scope. *)

module Key = struct
  type t = int * Value.t

  let equal (i1, v1) (i2, v2) = Int.equal i1 i2 && Value.equal v1 v2
  let hash (i, v) = (i * 0x9e3779b1) lxor Value.hash v
end

module Table = Hashtbl.Make (Key)

(* The interner is domain-local state: worker domains of the execution
   pool each intern into their own table, so parallel simulations never
   contend on (or corrupt) a shared hashtable. [with_fresh_interner]
   additionally isolates one task from whatever its domain interned
   before, which keeps id assignment — and hence the intern hit/miss
   statistics — a pure function of the task. [parented] has bit [id] set
   once history [id] has a child in this scope: a history joins its
   parent's run only as the parent's first child. *)
type interner = {
  table : t Table.t;
  mutable parented : Bytes.t;
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
}

let fresh_interner () =
  { table = Table.create 4096; parented = Bytes.make 64 '\000'; next_id = 1; hits = 0; misses = 0 }

let interner_key : interner Domain.DLS.key = Domain.DLS.new_key fresh_interner

(* Two chains of [Hashing.Fast.mix] over the values, from two bases and
   with two multipliers: a child's pair depends on its parent's pair and
   its value only, never on an intern id. *)
let root_digest = (0x1cf29ce484222325, 0x2545f4914f6cdd1d)

let child_digest (a, b) v =
  let mix = Hashing.Fast.mix in
  (mix ((a * 0x100000001b3) + v), mix ((b * 0x1f3d5b79) lxor v))

let empty = { id = 0; len = 0; run = 0; node = Root; digest = root_digest }
let run_parent h = match h.node with Root -> h | Snoc (_, _, up) -> up

(* Marks [id] as a parent; [true] iff it had no child before. *)
let first_child st id =
  let byte = id lsr 3 and bit = 1 lsl (id land 7) in
  if byte >= Bytes.length st.parented then begin
    let grown = Bytes.make (2 * Int.max byte (Bytes.length st.parented)) '\000' in
    Bytes.blit st.parented 0 grown 0 (Bytes.length st.parented);
    st.parented <- grown
  end;
  let old = Bytes.get_uint8 st.parented byte in
  Bytes.set_uint8 st.parented byte (old lor bit);
  old land bit = 0

let snoc h v =
  let st = Domain.DLS.get interner_key in
  let key = (h.id, v) in
  match Table.find_opt st.table key with
  | Some h' ->
    st.hits <- st.hits + 1;
    h'
  | None ->
    st.misses <- st.misses + 1;
    let id = st.next_id in
    let run, up = if first_child st h.id then (h.run, run_parent h) else (id, h) in
    let h' =
      { id; len = h.len + 1; run; node = Snoc (h, v, up); digest = child_digest h.digest v }
    in
    st.next_id <- id + 1;
    Table.add st.table key h';
    h'

let with_fresh_interner f =
  let saved = Domain.DLS.get interner_key in
  Domain.DLS.set interner_key (fresh_interner ());
  Fun.protect ~finally:(fun () -> Domain.DLS.set interner_key saved) f

let of_list vs = List.fold_left snoc empty vs

let to_list h =
  let rec go acc h =
    match h.node with Root -> acc | Snoc (p, v, _) -> go (v :: acc) p
  in
  go [] h

let length h = h.len
let id h = h.id
let digest h = h.digest
let run h = h.run
let parent h = match h.node with Root -> h | Snoc (p, _, _) -> p
let last h = match h.node with Root -> None | Snoc (_, v, _) -> Some v
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let compare_lexicographic a b = List.compare Value.compare (to_list a) (to_list b)
let hash h = Hashtbl.hash h.id

(* Up the runs from [h] to the one holding [prefix]: a history on run R is
   an ancestor of [h] iff its id is at most that of [h]'s deepest node on
   R, and every ancestor off [h]'s own run has an id below its head's. *)
let rec is_prefix ~prefix h =
  if h.run = prefix.run then prefix.id <= h.id
  else h.run <> 0 && prefix.id < h.run && is_prefix ~prefix (run_parent h)

let prefixes h =
  let rec go acc h =
    match h.node with Root -> h :: acc | Snoc (p, _, _) -> go (h :: acc) p
  in
  go [] h

let pp ppf h =
  Format.fprintf ppf "⟨@[%a@]⟩"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "·") Value.pp)
    (to_list h)

let interned_count () = (Domain.DLS.get interner_key).next_id
let intern_hits () = (Domain.DLS.get interner_key).hits
let intern_misses () = (Domain.DLS.get interner_key).misses

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
