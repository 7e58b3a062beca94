open Anon_kernel

type msg = Value.Set.t

type state = {
  value : Value.t;  (* VAL *)
  proposed : Value.Set.t;
  written : Value.Set.t;
  written_old : Value.Set.t;
}

(* The set {v} of each small value, built once and shared: processes
   that propose one value broadcast one set, which the mailboxes compare
   by address. A race between domains at worst builds one twice. *)
let singletons = Array.make 1024 Value.Set.empty

let singleton v =
  if v < 0 || v >= Array.length singletons then Value.Set.singleton v
  else
    let s = singletons.(v) in
    if Value.Set.is_empty s then begin
      let s = Value.Set.singleton v in
      singletons.(v) <- s;
      s
    end
    else s

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

  (* [s = {v}], without building [{v}]. *)
  let is_singleton v s = Value.Set.cardinal s = 1 && Value.equal (Value.Set.min_elt s) v

  let should_decide ~value ~proposed ~written ~written_old =
    if P.use_written_old_guard then
      (* Line 9: PROPOSED = WRITTENOLD = {VAL}. *)
      is_singleton value written_old && is_singleton value proposed
    else
      (* Ablation A2: no memory of the previous even round. *)
      is_singleton value proposed && not (Value.Set.is_empty written)

  (* Placement of the updates (the listing's indentation is ambiguous;
     the proofs pin it down): PROPOSED is reset only in even rounds
     ("no value is removed from a set PROPOSED in odd rounds", Lemma 2),
     while WRITTENOLD := WRITTEN runs every round (Lemma 2 equates
     WRITTENOLD at even round k with WRITTEN at round k-1). Each branch
     builds the one state it returns. *)
  let compute st ~round ~inbox:{ Anon_giraf.Intf.current; fresh = _ } =
    let written = intersect_all current in
    let proposed = Value.Set.union (union_all current) st.proposed in
    if round mod 2 <> 0 then ({ st with proposed; written; written_old = written }, proposed, None)
    else if should_decide ~value:st.value ~proposed ~written ~written_old:st.written_old then
      ({ st with proposed; written }, proposed, Some st.value)
    else begin
      let value =
        if Value.Set.is_empty written then st.value else Value.Set.max_elt written
      in
      let proposed = singleton value in
      ({ value; proposed; written; written_old = written }, proposed, None)
    end
end

module Default = Impl (struct
  let name = "es-consensus"
  let use_written_old_guard = true
end)

include (
  Default : module type of Default with type msg := msg and type state := state)

let proposed st = st.proposed
let written st = st.written
let current_val st = st.value

let set_key s =
  let b = Buffer.create 32 in
  Value.add_set b s;
  Buffer.contents b

let msg_key = set_key

let state_key st =
  let b = Buffer.create 64 in
  Buffer.add_char b 'v';
  Buffer.add_string b (Value.to_string st.value);
  Buffer.add_string b " p";
  Value.add_set b st.proposed;
  Buffer.add_string b " w";
  Value.add_set b st.written;
  Buffer.add_string b " o";
  Value.add_set b st.written_old;
  Buffer.contents b

module No_written_old_guard = struct
  include Impl (struct
    let name = "es-consensus/no-written-old"
    let use_written_old_guard = false
  end)

  let state_key = state_key
  let msg_key = msg_key
end
