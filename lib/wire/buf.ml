(* Growable gather buffer backed by [Bytes].

   Capacity doubles with one [Bytes.blit] of the written prefix. Short
   strings go in with [Bytes.blit_string]; a string of [ref_min] bytes
   or more is only recorded, with the store offset it follows, so a
   long payload put into an envelope is never copied by the encoder.
   [contents] copies everything once into the result; [slices] copies
   only the runs of the store and hands the long strings back as they
   are, for a gathered write. A buffer is cheap to [clear] and refill,
   which is what lets the HCX encoder keep one per domain instead of
   growing a fresh one per message. *)

type t = {
  mutable data : Bytes.t;
  mutable len : int;  (* bytes in [data] *)
  mutable refs : (int * string) list;
      (* referenced strings, newest first, each with the length of
         [data] at the point it was put *)
  mutable ref_len : int;  (* total length of [refs] *)
}

let ref_min = 1024

let create ?(initial = 256) () =
  { data = Bytes.create (max 16 initial); len = 0; refs = []; ref_len = 0 }

let capacity t = Bytes.length t.data
let length t = t.len + t.ref_len

let clear t =
  t.len <- 0;
  t.refs <- [];
  t.ref_len <- 0

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
  if n >= ref_min then begin
    t.refs <- (t.len, s) :: t.refs;
    t.ref_len <- t.ref_len + n
  end
  else begin
    ensure t n;
    Bytes.unsafe_blit_string s 0 t.data t.len n;
    t.len <- t.len + n
  end

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

let fixed n set t v =
  ensure t n;
  set t.data t.len v;
  t.len <- t.len + n

let add_uint16_le t v = fixed 2 Bytes.set_uint16_le t (v land 0xffff)
let add_uint16_be t v = fixed 2 Bytes.set_uint16_be t (v land 0xffff)
let add_int32_le = fixed 4 Bytes.set_int32_le
let add_int32_be = fixed 4 Bytes.set_int32_be
let add_int64_le = fixed 8 Bytes.set_int64_le
let add_int64_be = fixed 8 Bytes.set_int64_be

(* Walk the store runs and the referenced strings in order: [run off n]
   for each non-empty run of [data], [str s] for each reference. *)
let iter t ~run ~str =
  let last =
    List.fold_left
      (fun from (at, s) ->
        if at > from then run from (at - from);
        str s;
        at)
      0 (List.rev t.refs)
  in
  if t.len > last then run last (t.len - last)

let contents t =
  if t.refs = [] then Bytes.sub_string t.data 0 t.len
  else begin
    let out = Bytes.create (length t) and pos = ref 0 in
    iter t
      ~run:(fun off n ->
        Bytes.blit t.data off out !pos n;
        pos := !pos + n)
      ~str:(fun s ->
        Bytes.blit_string s 0 out !pos (String.length s);
        pos := !pos + String.length s);
    Bytes.unsafe_to_string out
  end

let slices t =
  let acc = ref [] in
  iter t
    ~run:(fun off n -> acc := Bytes.sub_string t.data off n :: !acc)
    ~str:(fun s -> acc := s :: !acc);
  List.rev !acc
