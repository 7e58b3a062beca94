module Digest = struct
  module H = Anon_kernel.Hashing.Fast

  (* Two independent FNV-style streams per view (the second offset basis
     is the standard one salted with a byte), combined across processes by
     wrapping addition. Addition is commutative, so the pair of sums
     identifies the view {e multiset} — the same quotient the sorted
     string key takes — and replacing one view is a subtract-and-add,
     which is what makes per-process updates O(changed processes). The
     native-int streams keep the per-byte fold allocation-free. *)
  let basis2 = H.byte H.init '\xa5'

  (* A dual-stream accumulator, fed piecewise so callers can hash a view
     without first materializing it as a string — or, for the reference
     path, a buffer collecting the same bytes as text. One writer feeds
     both, so the differential suite's [key = full_key] pins the cached
     hashes against the rendered views. *)
  type sums = { mutable a : int; mutable b : int }
  type stream = Hash of sums | Text of Buffer.t

  let sums () = { a = H.init; b = basis2 }
  let text b = Text b

  let feed_char st c =
    match st with
    | Hash h ->
      let c = Char.code c in
      h.a <- (h.a lxor c) * H.prime;
      h.b <- (h.b lxor c) * H.prime
    | Text b -> Buffer.add_char b c

  let feed_string st s =
    match st with
    | Hash h ->
      for i = 0 to String.length s - 1 do
        let c = Char.code (String.unsafe_get s i) in
        h.a <- (h.a lxor c) * H.prime;
        h.b <- (h.b lxor c) * H.prime
      done
    | Text b -> Buffer.add_string b s

  let feed_int st n = Anon_kernel.Value.iter_decimal feed_char st n

  let hashes write x =
    let h = sums () in
    write (Hash h) x;
    (h.a, h.b)

  type key = { round : int; global1 : int; global2 : int; sum1 : int; sum2 : int }

  let equal_key k1 k2 =
    k1.sum1 = k2.sum1 && k1.sum2 = k2.sum2 && k1.round = k2.round
    && k1.global1 = k2.global1 && k1.global2 = k2.global2

  (* A stream's low bits depend only on the low bits of the bytes fed,
     so the high bits of its partner are folded in; the round and the
     global facts separate keys whose views agree. *)
  let hash_key k =
    (k.sum1 lxor (k.sum2 lsr 31)) + (k.global1 lxor (k.global2 lsr 31)) + k.round

  let pp_key ppf k =
    Format.fprintf ppf "r%d g%x.%x v%x.%x" k.round k.global1 k.global2 k.sum1 k.sum2

  type t = {
    valid : bool array;  (* whether a slot holds its view's current pair *)
    h1 : int array;
    h2 : int array;
    mutable sum1 : int;
    mutable sum2 : int;
  }

  let create ~n =
    {
      valid = Array.make n false;
      h1 = Array.make n 0;
      h2 = Array.make n 0;
      sum1 = 0;
      sum2 = 0;
    }

  let copy t =
    {
      valid = Array.copy t.valid;
      h1 = Array.copy t.h1;
      h2 = Array.copy t.h2;
      sum1 = t.sum1;
      sum2 = t.sum2;
    }

  let slot t p = (t.h1.(p), t.h2.(p))
  let invalidate t p = t.valid.(p) <- false

  let assign t ~slot a b =
    t.sum1 <- t.sum1 - t.h1.(slot) + a;
    t.sum2 <- t.sum2 - t.h2.(slot) + b;
    t.h1.(slot) <- a;
    t.h2.(slot) <- b;
    t.valid.(slot) <- true

  let refresh_stream t ~slot fill =
    if not t.valid.(slot) then begin
      let h = sums () in
      fill (Hash h);
      assign t ~slot h.a h.b
    end

  let key_of_sums ~round ~global:(global1, global2) sum1 sum2 =
    { round; global1; global2; sum1; sum2 }

  let key t ~round ~global = key_of_sums ~round ~global t.sum1 t.sum2

  let full_key ~round ~global ~views =
    let sum1 = ref 0 and sum2 = ref 0 in
    List.iter
      (fun v ->
        let a, b = hashes feed_string v in
        sum1 := !sum1 + a;
        sum2 := !sum2 + b)
      views;
    key_of_sums ~round ~global:(hashes feed_string global) !sum1 !sum2
end
