type t = { id : int; len : int; node : node }

and node = Root | Snoc of t * Value.t

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
   statistics — a pure function of the task. *)
type interner = {
  table : t Table.t;
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
}

let fresh_interner () = { table = Table.create 4096; next_id = 1; hits = 0; misses = 0 }

let interner_key : interner Domain.DLS.key = Domain.DLS.new_key fresh_interner

let empty = { id = 0; len = 0; node = Root }

let snoc h v =
  let st = Domain.DLS.get interner_key in
  let key = (h.id, v) in
  match Table.find_opt st.table key with
  | Some h' ->
    st.hits <- st.hits + 1;
    h'
  | None ->
    st.misses <- st.misses + 1;
    let h' = { id = st.next_id; len = h.len + 1; node = Snoc (h, v) } in
    st.next_id <- st.next_id + 1;
    Table.add st.table key h';
    h'

let with_fresh_interner f =
  let saved = Domain.DLS.get interner_key in
  Domain.DLS.set interner_key (fresh_interner ());
  Fun.protect ~finally:(fun () -> Domain.DLS.set interner_key saved) f

let of_list vs = List.fold_left snoc empty vs

let to_list h =
  let rec go acc h =
    match h.node with Root -> acc | Snoc (p, v) -> go (v :: acc) p
  in
  go [] h

let length h = h.len
let id h = h.id
let parent h = match h.node with Root -> h | Snoc (p, _) -> p
let last h = match h.node with Root -> None | Snoc (_, v) -> Some v
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let compare_lexicographic a b = List.compare Value.compare (to_list a) (to_list b)
let hash h = Hashtbl.hash h.id

let rec drop_to len h = if h.len <= len then h else
  match h.node with
  | Root -> h
  | Snoc (p, _) -> drop_to len p

let is_prefix ~prefix h =
  prefix.len <= h.len && equal prefix (drop_to prefix.len h)

let prefixes h =
  let rec go acc h =
    match h.node with Root -> h :: acc | Snoc (p, _) -> go (h :: acc) p
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
