(* Word [w] holds pids [32w .. 32w + 31], pid [p] at bit [p land 31].
   The last word is never 0, so [empty] is the empty array and equal
   sets are equal arrays. *)
type t = int array

let bits = 32
let empty = [||]
let is_empty s = Array.length s = 0

let check p = if p < 0 then invalid_arg "Pidset: negative pid"
let bit p = 1 lsl (p land (bits - 1))

(* A fresh array of [len] zero words. The sets of up to 128 pids are
   allocated inline: [Array.make] is a call into the runtime, which
   costs more than a small set's whole use. *)
let zeros len =
  match len with
  | 0 -> [||]
  | 1 -> [| 0 |]
  | 2 -> [| 0; 0 |]
  | 3 -> [| 0; 0; 0 |]
  | 4 -> [| 0; 0; 0; 0 |]
  | _ -> Array.make len 0

(* The first [len] words of [a], fresh. *)
let sub a len =
  let s = zeros len in
  for i = 0 to len - 1 do
    s.(i) <- a.(i)
  done;
  s

(* The index of the last non-zero word of [a] from [i] down to [first],
   [first - 1] for none. The helpers below are top-level functions: a
   local one would be a closure allocated at every call. *)
let rec last_word (a : int array) first i =
  if i >= first && a.(i) = 0 then last_word a first (i - 1) else i

(* [a] up to its last non-zero word. *)
let trim a =
  let l = last_word a 0 (Array.length a - 1) + 1 in
  if l = Array.length a then a else sub a l

let mem p s =
  let w = p asr 5 in
  p >= 0 && w < Array.length s && s.(w) land bit p <> 0

let rec top m = function
  | [] -> m
  | p :: tl ->
    check p;
    top (Int.max m p) tl

let rec set_all a = function
  | [] -> a
  | p :: tl ->
    a.(p / bits) <- a.(p / bits) lor bit p;
    set_all a tl

let of_list ps = set_all (zeros ((top (-1) ps + bits) / bits)) ps

let remove p s =
  if not (mem p s) then s
  else
    let a = sub s (Array.length s) in
    a.(p / bits) <- a.(p / bits) land lnot (bit p);
    if a.(Array.length a - 1) = 0 then trim a else a

let rec within (a : t) (b : t) i = i < 0 || (a.(i) land lnot b.(i) = 0 && within a b (i - 1))
let subset a b = Array.length a <= Array.length b && within a b (Array.length a - 1)

let union a b =
  if subset b a then a
  else if subset a b then b
  else
    let la = Array.length a and lb = Array.length b in
    let u = zeros (Int.max la lb) in
    for i = 0 to Array.length u - 1 do
      u.(i) <- (if i < la then a.(i) else 0) lor if i < lb then b.(i) else 0
    done;
    u

let inter a b =
  if subset a b then a
  else if subset b a then b
  else
    let c = zeros (Int.min (Array.length a) (Array.length b)) in
    for i = 0 to Array.length c - 1 do
      c.(i) <- a.(i) land b.(i)
    done;
    trim c

(* Bits set in a 32-bit word. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

let cardinal s =
  let c = ref 0 in
  for i = 0 to Array.length s - 1 do
    c := !c + popcount s.(i)
  done;
  !c

let inter_cardinal a b =
  let c = ref 0 in
  for i = 0 to Int.min (Array.length a) (Array.length b) - 1 do
    c := !c + popcount (a.(i) land b.(i))
  done;
  !c

(* The members of word [w] from bit [j] on, for [f]: the loop stops at
   the word's highest member. *)
let rec iter_word f base w j =
  if w lsr j <> 0 then begin
    if (w lsr j) land 1 = 1 then f (base + j);
    iter_word f base w (j + 1)
  end

let iter f s =
  for i = 0 to Array.length s - 1 do
    iter_word f (i * bits) s.(i) 0
  done

let rec fold_word f base w j acc =
  if w lsr j = 0 then acc
  else fold_word f base w (j + 1) (if (w lsr j) land 1 = 1 then f (base + j) acc else acc)

let fold f s acc =
  let acc = ref acc in
  for i = 0 to Array.length s - 1 do
    acc := fold_word f (i * bits) s.(i) 0 !acc
  done;
  !acc

let to_list s = List.rev (fold List.cons s [])

module Rows = struct
  (* Row [r] is [words.(r * width) .. words.(r * width + width - 1)]. *)
  type nonrec t = { width : int; words : int array }

  let create ~rows ~size =
    let width = (Int.max 0 size + bits - 1) / bits in
    { width; words = zeros (Int.max 0 rows * width) }

  let add b ~row p =
    if p < 0 || p >= b.width * bits then invalid_arg "Pidset.Rows.add: pid out of range";
    let i = (row * b.width) + (p / bits) in
    b.words.(i) <- b.words.(i) lor bit p

  let rec zero words i last = i >= last || (words.(i) = 0 && zero words (i + 1) last)
  let is_empty b ~row = zero b.words (row * b.width) ((row + 1) * b.width)

  (* The row's words, trimmed, and the row cleared. A one-word row, the
     common case, takes no loop. *)
  let take b ~row =
    if b.width = 1 then begin
      let w = b.words.(row) in
      b.words.(row) <- 0;
      if w = 0 then empty else [| w |]
    end
    else
      let first = row * b.width in
      let len = last_word b.words first (first + b.width - 1) + 1 - first in
      let s = zeros len in
      for i = 0 to b.width - 1 do
        if i < len then s.(i) <- b.words.(first + i);
        b.words.(first + i) <- 0
      done;
      s
end
