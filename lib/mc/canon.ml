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

  (* Decimal digits, matching [string_of_int] byte for byte. *)
  let rec feed_nat st n =
    if n >= 10 then feed_nat st (n / 10);
    feed_char st (Char.unsafe_chr (48 + (n mod 10)))

  let feed_int st n =
    if n < 0 then begin
      feed_char st '-';
      feed_nat st (-n)
    end
    else feed_nat st n

  (* One pass over the view feeding both streams. *)
  let view_hashes v =
    let h = sums () in
    feed_string (Hash h) v;
    (h.a, h.b)

  type t = {
    versions : int array;  (* last refreshed Step_core version; -1 = never *)
    h1 : int array;
    h2 : int array;
    mutable sum1 : int;
    mutable sum2 : int;
  }

  let create ~n =
    {
      versions = Array.make n (-1);
      h1 = Array.make n 0;
      h2 = Array.make n 0;
      sum1 = 0;
      sum2 = 0;
    }

  let copy t =
    {
      versions = Array.copy t.versions;
      h1 = Array.copy t.h1;
      h2 = Array.copy t.h2;
      sum1 = t.sum1;
      sum2 = t.sum2;
    }

  let refresh_stream t ~slot ~version fill =
    if t.versions.(slot) <> version then begin
      let h = sums () in
      fill (Hash h);
      t.sum1 <- t.sum1 - t.h1.(slot) + h.a;
      t.sum2 <- t.sum2 - t.h2.(slot) + h.b;
      t.h1.(slot) <- h.a;
      t.h2.(slot) <- h.b;
      t.versions.(slot) <- version
    end

  let render ~round ~global sum1 sum2 =
    let b = Buffer.create (String.length global + 24) in
    Buffer.add_string b (string_of_int round);
    Buffer.add_char b '#';
    Buffer.add_string b global;
    Buffer.add_char b '\x01';
    Buffer.add_int64_be b (Int64.of_int sum1);
    Buffer.add_int64_be b (Int64.of_int sum2);
    Buffer.contents b

  let key t ~round ~global = render ~round ~global t.sum1 t.sum2

  let full_key ~round ~global ~views =
    let sum1 = ref 0 and sum2 = ref 0 in
    List.iter
      (fun v ->
        let a, b = view_hashes v in
        sum1 := !sum1 + a;
        sum2 := !sum2 + b)
      views;
    render ~round ~global !sum1 !sum2
end
