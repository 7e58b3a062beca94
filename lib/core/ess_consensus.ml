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

  let pp_msg ppf m =
    Format.fprintf ppf "⟨%a,%a,%a⟩" Pvalue.pp_set m.m_proposed History.pp m.m_history
      Counter_table.pp m.m_counters

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

  (* Line 8. The paper merges with pointwise [min] (default 0): a history's
     counter is only as high as the slowest table that travelled this
     round. [`Max] is ablation A3. *)
  let merge_counters ms =
    let tables = List.map (fun m -> m.m_counters) ms in
    match P.merge with
    | `Min -> Counter_table.min_merge tables
    | `Max -> Counter_table.max_merge tables

  let is_leader_in counters history = Counter_table.is_max counters history

  let compute st ~round ~inbox:{ Anon_giraf.Intf.current; fresh = _ } =
    let written = intersect_proposed current in
    let proposed = Pvalue.Set.union (union_proposed current) st.proposed in
    let counters = merge_counters current in
    (* Line 9: bump the counter of every received history to one more than
       the best counter among its prefixes. *)
    let counters =
      Counter_table.bump_all counters (List.map (fun m -> m.m_history) current)
    in
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
      Pvalue.Set.equal st.written_old (Pvalue.Set.singleton (Pvalue.v st.value))
      && Pvalue.subset_of_val_bot st.value st.proposed
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

  (* Canonical, run-independent serializations: histories render as their
     value sequences and counter tables sort bindings by that rendering, so
     keys never depend on intern ids (which vary across interner scopes). *)
  let pset_key s =
    "{"
    ^ String.concat ","
        (List.map
           (function Pvalue.Bot -> "_" | Pvalue.Val v -> Value.to_string v)
           (Pvalue.Set.elements s))
    ^ "}"

  let history_key h =
    "<" ^ String.concat "." (List.map Value.to_string (History.to_list h)) ^ ">"

  let counters_key c =
    let bindings =
      List.sort compare
        (List.map (fun (h, cnt) -> (History.to_list h, cnt)) (Counter_table.bindings c))
    in
    "["
    ^ String.concat ";"
        (List.map
           (fun (vs, cnt) ->
             String.concat "." (List.map Value.to_string vs) ^ "=" ^ string_of_int cnt)
           bindings)
    ^ "]"

  let msg_key m =
    Printf.sprintf "p%s h%s c%s" (pset_key m.m_proposed) (history_key m.m_history)
      (counters_key m.m_counters)

  let state_key st =
    Printf.sprintf "v%s c%s h%s p%s w%s o%s l%b" (Value.to_string st.value)
      (counters_key st.counters) (history_key st.history) (pset_key st.proposed)
      (pset_key st.written) (pset_key st.written_old) st.leader_flag
end

module Default = Impl (struct
  let merge = `Min
  let silent_non_leaders = false
  let converged_disjunct = true
end)

include Default

module Ablation (P : PARAMS) = Impl (P)
