(* Growable byte buffer backed by [Bytes].

   Capacity doubles with one [Bytes.blit] of the written prefix; strings
   go in with [Bytes.blit_string] and the result comes out with one
   [Bytes.sub_string], so a message costs one copy in and one copy out.
   A buffer is cheap to [clear] and refill, which is what lets the HCX
   encoder keep one per domain instead of growing a fresh one per
   message. *)

type t = { mutable data : Bytes.t; mutable len : int }

let create ?(initial = 256) () =
  { data = Bytes.create (max 16 initial); len = 0 }

let capacity t = Bytes.length t.data
let clear t = t.len <- 0

let grow t needed =
  let cap = ref (Bytes.length t.data) in
  while !cap < needed do cap := !cap * 2 done;
  let data = Bytes.create !cap in
  Bytes.blit t.data 0 data 0 t.len;
  t.data <- data

let ensure t extra =
  if t.len + extra > Bytes.length t.data then grow t (t.len + extra)

let add_char t c =
  if t.len >= Bytes.length t.data then grow t (t.len + 1);
  Bytes.unsafe_set t.data t.len c;
  t.len <- t.len + 1

let add_string t s =
  let n = String.length s in
  ensure t n;
  Bytes.unsafe_blit_string s 0 t.data t.len n;
  t.len <- t.len + n

(* A non-negative int has at most 63 significant bits: 9 groups. One
   capacity check covers the whole value. *)
let add_uvarint t v =
  ensure t 9;
  let data = t.data in
  let v = ref v and i = ref t.len in
  while !v >= 0x80 do
    Bytes.unsafe_set data !i (Char.unsafe_chr (!v land 0x7f lor 0x80));
    v := !v lsr 7;
    incr i
  done;
  Bytes.unsafe_set data !i (Char.unsafe_chr !v);
  t.len <- !i + 1

let add_int32_le t v =
  ensure t 4;
  Bytes.set_int32_le t.data t.len v;
  t.len <- t.len + 4

let add_int64_le t v =
  ensure t 8;
  Bytes.set_int64_le t.data t.len v;
  t.len <- t.len + 8

let contents t = Bytes.sub_string t.data 0 t.len
