open Anon_kernel

let name = "weak-set-ms"

type msg = Value.Set.t

type state = {
  value : Value.t option;  (* VAL, None encodes the initial ⊥ *)
  proposed : Value.Set.t;
  written : Value.Set.t;
  block : bool;
}

let msg_compare = Value.Set.compare
let msg_size = Value.Set.cardinal

let initialize () =
  let st =
    { value = None; proposed = Value.Set.empty; written = Value.Set.empty; block = false }
  in
  (st, st.proposed)

let intersect_all = function
  | [] -> Value.Set.empty (* unreachable: own message always present *)
  | m :: ms -> List.fold_left Value.Set.inter m ms

let compute st ~round:_ ~inbox:{ Anon_giraf.Intf.current; fresh } =
  let written = intersect_all current in
  (* Line 15 unions messages of every round heard so far; [fresh] carries
     exactly the arrivals (including late ones) since the last round. *)
  let proposed =
    List.fold_left (fun acc (_, m) -> Value.Set.union acc m) st.proposed (Lazy.force fresh)
  in
  let block =
    st.block
    && not (match st.value with None -> false | Some v -> Value.Set.mem v written)
  in
  let st = { st with written; proposed; block } in
  (st, st.proposed)

let add st v =
  if st.block then invalid_arg "Weak_set_ms.add: an add is already pending";
  { st with proposed = Value.Set.add v st.proposed; value = Some v; block = true }

let add_pending st = st.block
let get st = st.proposed
let written st = st.written
let pending_value st = if st.block then st.value else None

let msg_key s =
  let b = Buffer.create 32 in
  Value.add_set b s;
  Buffer.contents b

let state_key st =
  let b = Buffer.create 64 in
  Buffer.add_char b 'v';
  Buffer.add_string b (match st.value with None -> "_" | Some v -> Value.to_string v);
  Buffer.add_string b " p";
  Value.add_set b st.proposed;
  Buffer.add_string b " w";
  Value.add_set b st.written;
  Buffer.add_string b (if st.block then " btrue" else " bfalse");
  Buffer.contents b
