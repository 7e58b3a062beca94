open Anon_kernel

type msg = Value.Set.t

type state = {
  value : Value.t;  (* VAL *)
  proposed : Value.Set.t;
  written : Value.Set.t;
  written_old : Value.Set.t;
}

module Impl (P : sig
  val name : string
  val use_written_old_guard : bool
end) =
struct
  let name = P.name

  type nonrec msg = msg
  type nonrec state = state

  let msg_compare = Value.Set.compare
  let msg_size = Value.Set.cardinal
  let leader _ = None

  let initialize v =
    let st =
      {
        value = v;
        proposed = Value.Set.empty;
        written = Value.Set.empty;
        written_old = Value.Set.empty;
      }
    in
    (st, st.proposed)

  let intersect_all = function
    | [] -> Value.Set.empty (* unreachable: own message is always present *)
    | m :: ms -> List.fold_left Value.Set.inter m ms

  let union_all ms = List.fold_left Value.Set.union Value.Set.empty ms

  let should_decide st =
    let singleton_val = Value.Set.singleton st.value in
    if P.use_written_old_guard then
      (* Line 9: PROPOSED = WRITTENOLD = {VAL}. *)
      Value.Set.equal st.proposed st.written_old
      && Value.Set.equal st.written_old singleton_val
    else
      (* Ablation A2: no memory of the previous even round. *)
      Value.Set.equal st.proposed singleton_val
      && not (Value.Set.is_empty st.written)

  (* Placement of the updates (the listing's indentation is ambiguous;
     the proofs pin it down): PROPOSED is reset only in even rounds
     ("no value is removed from a set PROPOSED in odd rounds", Lemma 2),
     while WRITTENOLD := WRITTEN runs every round (Lemma 2 equates
     WRITTENOLD at even round k with WRITTEN at round k-1). *)
  let compute st ~round ~inbox:{ Anon_giraf.Intf.current; fresh = _ } =
    let written = intersect_all current in
    let proposed = Value.Set.union (union_all current) st.proposed in
    let st = { st with written; proposed } in
    if round mod 2 <> 0 then begin
      let st = { st with written_old = written } in
      (st, st.proposed, None)
    end
    else if should_decide st then (st, st.proposed, Some st.value)
    else begin
      let value =
        if Value.Set.is_empty written then st.value else Value.Set.max_elt written
      in
      let st =
        { value; proposed = Value.Set.singleton value; written; written_old = written }
      in
      (st, st.proposed, None)
    end
end

module Default = Impl (struct
  let name = "es-consensus"
  let use_written_old_guard = true
end)

include (
  Default : module type of Default with type msg := msg and type state := state)

module No_written_old_guard = Impl (struct
  let name = "es-consensus/no-written-old"
  let use_written_old_guard = false
end)

let proposed st = st.proposed
let written st = st.written
let current_val st = st.value

let add_set b s =
  Buffer.add_char b '{';
  let first = ref true in
  Value.Set.iter
    (fun v ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b (Value.to_string v))
    s;
  Buffer.add_char b '}'

let set_key s =
  let b = Buffer.create 32 in
  add_set b s;
  Buffer.contents b

let msg_key = set_key

let state_key st =
  let b = Buffer.create 64 in
  Buffer.add_char b 'v';
  Buffer.add_string b (Value.to_string st.value);
  Buffer.add_string b " p";
  add_set b st.proposed;
  Buffer.add_string b " w";
  add_set b st.written;
  Buffer.add_string b " o";
  add_set b st.written_old;
  Buffer.contents b
