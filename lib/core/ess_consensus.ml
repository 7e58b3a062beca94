open Anon_kernel

type message = {
  m_proposed : Pvalue.Set.t;
  m_history : History.t;
  m_counters : Counter_table.t;
}

type merge_rule = [ `Min | `Max ]

module type PARAMS = sig
  val merge : merge_rule
  val silent_non_leaders : bool

  val converged_disjunct : bool
  (** Line 15's second clause [PROPOSED ⊆ {VAL, ⊥}] — lets a non-leader
      keep proposing the value everybody already agrees on. *)
end

module type OBSERVABLE = sig
  include Anon_giraf.Intf.ALGORITHM with type msg = message

  val is_leader : state -> bool
end

module Impl (P : PARAMS) = struct
  let name =
    let base =
      match P.merge, P.silent_non_leaders with
      | `Min, false -> "ess-consensus"
      | `Max, false -> "ess-consensus/max-merge"
      | `Min, true -> "ess-consensus/silent"
      | `Max, true -> "ess-consensus/max-merge-silent"
    in
    if P.converged_disjunct then base else base ^ "/leaders-only"

  type msg = message

  type state = {
    value : Value.t;  (* VAL *)
    counters : Counter_table.t;  (* C *)
    history : History.t;
    proposed : Pvalue.Set.t;
    written : Pvalue.Set.t;
    written_old : Pvalue.Set.t;
    leader_flag : bool;
        (* The line-15 leader test as last evaluated (the history is
           appended to afterwards, so re-evaluating against the current
           state would always be stale). *)
  }

  let msg_compare a b =
    let c = Pvalue.Set.compare a.m_proposed b.m_proposed in
    if c <> 0 then c
    else
      let c = History.compare a.m_history b.m_history in
      if c <> 0 then c else Counter_table.compare a.m_counters b.m_counters

  let msg_size m =
    Pvalue.Set.cardinal m.m_proposed
    + History.length m.m_history
    + Counter_table.cardinal m.m_counters

  let leader st = Some st.leader_flag

  let message_of st =
    { m_proposed = st.proposed; m_history = st.history; m_counters = st.counters }

  let initialize v =
    let st =
      {
        value = v;
        counters = Counter_table.empty;
        history = History.of_list [ v ];
        proposed = Pvalue.Set.empty;
        written = Pvalue.Set.empty;
        written_old = Pvalue.Set.empty;
        (* An all-zero counter table makes everybody a leader. *)
        leader_flag = true;
      }
    in
    (st, message_of st)

  let intersect_proposed = function
    | [] -> Pvalue.Set.empty (* unreachable: own message always present *)
    | m :: ms ->
      List.fold_left (fun acc m -> Pvalue.Set.inter acc m.m_proposed) m.m_proposed ms

  let union_proposed ms =
    List.fold_left (fun acc m -> Pvalue.Set.union acc m.m_proposed) Pvalue.Set.empty ms

  (* The inbox's tables and histories, in inbox order, in one pass. *)
  let rec tables_and_histories = function
    | [] -> ([], [])
    | m :: ms ->
      let ts, hs = tables_and_histories ms in
      (m.m_counters :: ts, m.m_history :: hs)

  (* Lines 8 and 9 as one kernel call. The paper merges with pointwise
     [min] (default 0): a history's counter is only as high as the slowest
     table that travelled this round. Then every received history's
     counter becomes one more than the best counter among its prefixes, in
     inbox order. [`Max] is ablation A3. *)
  let update_counters current =
    let tables, histories = tables_and_histories current in
    match P.merge with
    | `Min -> Counter_table.merge_bump tables histories
    | `Max -> Counter_table.merge_bump [ Counter_table.max_merge tables ] histories

  (* [s = {VAL}], without building [{VAL}]. *)
  let is_singleton v s =
    Pvalue.Set.cardinal s = 1
    && match Pvalue.Set.min_elt s with Pvalue.Val x -> Value.equal x v | Pvalue.Bot -> false

  let is_leader_in counters history = Counter_table.is_max counters history

  let compute st ~round ~inbox:{ Anon_giraf.Intf.current; fresh = _ } =
    let written = intersect_proposed current in
    let proposed = Pvalue.Set.union (union_proposed current) st.proposed in
    let counters = update_counters current in
    let st = { st with written; proposed; counters } in
    (* As in Alg. 2, WRITTENOLD := WRITTEN runs every round (the agreement
       proof of Thm. 2 "compares Lemma 2", which needs WRITTENOLD at an
       even round to be the previous round's WRITTEN); PROPOSED is only
       rewritten in even rounds. *)
    if round mod 2 <> 0 then begin
      let st =
        { st with written_old = written; history = History.snoc st.history st.value }
      in
      (st, message_of st, None)
    end
    else if
      is_singleton st.value st.written_old && Pvalue.subset_of_val_bot st.value st.proposed
    then (st, message_of st, Some st.value)
    else begin
      let value =
        match Pvalue.max_value written with None -> st.value | Some v -> v
      in
      let converged =
        P.converged_disjunct && Pvalue.subset_of_val_bot value proposed
      in
      let leader_flag = is_leader_in counters st.history in
      let proposed =
        if leader_flag || converged then Pvalue.Set.singleton (Pvalue.v value)
        else if P.silent_non_leaders then Pvalue.Set.empty
        else Pvalue.Set.singleton Pvalue.bot
      in
      let st =
        {
          st with
          value;
          proposed;
          leader_flag;
          written_old = written;
          written = proposed;
          history = History.snoc st.history value;
        }
      in
      (st, message_of st, None)
    end

  let is_leader st = st.leader_flag
  let current_val st = st.value
  let history st = st.history
  let counters st = st.counters
  let proposed st = st.proposed

  let written st = st.written
  let written_old st = st.written_old

  (* Canonical, run-independent serializations. A history and a counter
     table render as their structural digests ({!History.digest},
     {!Counter_table.digest}), which depend on values and counts only,
     never on intern ids (which vary across interner scopes). *)
  let add_pset b s =
    Buffer.add_char b '{';
    ignore
      (Pvalue.Set.fold
         (fun v first ->
           if not first then Buffer.add_char b ',';
           (match v with
           | Pvalue.Bot -> Buffer.add_char b '_'
           | Pvalue.Val v -> Buffer.add_string b (Value.to_string v));
           false)
         s true
        : bool);
    Buffer.add_char b '}'

  (* Sixteen hex digits per int, most significant first. *)
  let add_hex b d =
    for i = 15 downto 0 do
      Buffer.add_char b (String.unsafe_get "0123456789abcdef" ((d lsr (4 * i)) land 15))
    done

  let add_digest b opening (d1, d2) closing =
    Buffer.add_char b opening;
    add_hex b d1;
    Buffer.add_char b '.';
    add_hex b d2;
    Buffer.add_char b closing

  let add_history b h = add_digest b '<' (History.digest h) '>'
  let add_counters b c = add_digest b '[' (Counter_table.digest c) ']'

  let msg_key m =
    let b = Buffer.create 96 in
    Buffer.add_char b 'p';
    add_pset b m.m_proposed;
    Buffer.add_string b " h";
    add_history b m.m_history;
    Buffer.add_string b " c";
    add_counters b m.m_counters;
    Buffer.contents b

  let state_key st =
    let b = Buffer.create 128 in
    Buffer.add_char b 'v';
    Buffer.add_string b (Value.to_string st.value);
    Buffer.add_string b " c";
    add_counters b st.counters;
    Buffer.add_string b " h";
    add_history b st.history;
    Buffer.add_string b " p";
    add_pset b st.proposed;
    Buffer.add_string b " w";
    add_pset b st.written;
    Buffer.add_string b " o";
    add_pset b st.written_old;
    Buffer.add_string b (if st.leader_flag then " ltrue" else " lfalse");
    Buffer.contents b
end

module Default = Impl (struct
  let merge = `Min
  let silent_non_leaders = false
  let converged_disjunct = true
end)

include Default

module Ablation (P : PARAMS) = Impl (P)
