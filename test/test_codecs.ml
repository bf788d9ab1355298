(* Wire codec tests: the HeidiRMI text codec and the CDR binary codec.
   Round-trip properties over random value trees, plus format-level
   checks (alignment, byte order, type tagging, error paths). *)

module W = Wire.Wvalue

let text = Wire.Text_codec.codec
let cdr_be = Wire.Cdr_codec.codec Wire.Cdr_codec.Big_endian
let cdr_le = Wire.Cdr_codec.codec Wire.Cdr_codec.Little_endian
let hcx = Wire.Hcx_codec.codec
let all_codecs = [ text; cdr_be; cdr_le; hcx ]

let roundtrip (codec : Wire.Codec.t) v =
  let e = codec.Wire.Codec.encoder () in
  W.encode e v;
  let payload = e.Wire.Codec.finish () in
  let d = codec.Wire.Codec.decoder payload in
  W.decode_like d v

(* ---------------- unit: specific values through every codec -------- *)

let sample_values =
  [
    W.Bool true;
    W.Bool false;
    W.Char 'x';
    W.Char '\000';
    W.Octet 255;
    W.Short (-32768);
    W.Ushort 65535;
    W.Long (-2147483648);
    W.Ulong 4294967295;
    W.Longlong Int64.min_int;
    W.Ulonglong (-1L);
    W.Float 1.5;
    W.Double 3.141592653589793;
    W.String "";
    W.String "hello world";
    W.String "with \"quotes\" and \\slashes\\ and\nnewlines";
    W.Seq [];
    W.Seq [ W.Long 1; W.Long 2; W.Long 3 ];
    W.Group [ W.String "point"; W.Long 3; W.Long 4 ];
    W.Seq [ W.Group [ W.String "a"; W.Bool true ]; W.Group [ W.String "b"; W.Bool false ] ];
  ]

let test_samples () =
  List.iter
    (fun codec ->
      List.iter
        (fun v ->
          let got = roundtrip codec v in
          if not (W.equal v got) then
            Alcotest.failf "codec %s: %s round-tripped to %s"
              codec.Wire.Codec.name
              (Format.asprintf "%a" W.pp v)
              (Format.asprintf "%a" W.pp got))
        sample_values)
    all_codecs

let test_empty_seq_needs_no_witness () =
  (* Decoding Seq [] works even without an element witness as long as the
     wire length is 0. *)
  List.iter
    (fun codec ->
      match roundtrip codec (W.Seq []) with
      | W.Seq [] -> ()
      | _ -> Alcotest.fail "empty seq")
    all_codecs

(* ---------------- text codec specifics ---------------- *)

let test_text_is_single_line () =
  let e = text.Wire.Codec.encoder () in
  W.encode e (W.String "line1\nline2\rline3");
  let payload = e.Wire.Codec.finish () in
  Alcotest.(check bool) "no raw newline" false (String.contains payload '\n');
  Alcotest.(check bool) "no raw CR" false (String.contains payload '\r')

let test_text_human_readable () =
  let e = text.Wire.Codec.encoder () in
  e.Wire.Codec.put_long 42;
  e.Wire.Codec.put_bool true;
  e.Wire.Codec.put_string "hi";
  Alcotest.(check string) "tokens" "l42 bT s\"hi\"" (e.Wire.Codec.finish ())

let test_text_type_checking () =
  (* The text protocol detects type mismatches — a property CDR cannot
     have (it is positional and untyped). *)
  let e = text.Wire.Codec.encoder () in
  e.Wire.Codec.put_long 1;
  let payload = e.Wire.Codec.finish () in
  let d = text.Wire.Codec.decoder payload in
  match d.Wire.Codec.get_string () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "expected a type error"

let test_text_range_checks () =
  let e = text.Wire.Codec.encoder () in
  (match e.Wire.Codec.put_short 40000 with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "short range");
  let e = text.Wire.Codec.encoder () in
  match e.Wire.Codec.put_octet (-1) with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "octet range"

let test_text_truncation () =
  let d = text.Wire.Codec.decoder "l1" in
  ignore (d.Wire.Codec.get_long ());
  Alcotest.(check bool) "at_end" true (d.Wire.Codec.at_end ());
  match d.Wire.Codec.get_long () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "expected end-of-payload error"

let test_text_escape_roundtrip () =
  let s = "a\\b\"c\nd\re" in
  Alcotest.(check string) "escape" s
    (Wire.Text_codec.unescape (Wire.Text_codec.escape s))

(* ---------------- CDR specifics ---------------- *)

let test_cdr_alignment () =
  (* octet at 0, then long must start at offset 4 (3 padding bytes). *)
  let e = cdr_be.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 1;
  e.Wire.Codec.put_long 2;
  let p = e.Wire.Codec.finish () in
  Alcotest.(check int) "length" 8 (String.length p);
  Alcotest.(check char) "pad" '\000' p.[1];
  (* octet then double: 7 padding bytes, total 16. *)
  let e = cdr_be.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 1;
  e.Wire.Codec.put_double 1.0;
  Alcotest.(check int) "double align" 16 (String.length (e.Wire.Codec.finish ()))

let test_cdr_byte_order () =
  let enc codec =
    let e = codec.Wire.Codec.encoder () in
    e.Wire.Codec.put_long 1;
    e.Wire.Codec.finish ()
  in
  Alcotest.(check string) "big endian" "\000\000\000\001" (enc cdr_be);
  Alcotest.(check string) "little endian" "\001\000\000\000" (enc cdr_le)

let test_cdr_string_format () =
  (* ulong length (incl NUL), bytes, NUL. *)
  let e = cdr_be.Wire.Codec.encoder () in
  e.Wire.Codec.put_string "hi";
  Alcotest.(check string) "layout" "\000\000\000\003hi\000" (e.Wire.Codec.finish ())

let test_cdr_truncation () =
  let d = cdr_be.Wire.Codec.decoder "\000\000" in
  match d.Wire.Codec.get_long () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "expected truncation error"

let test_cdr_bad_bool_and_string () =
  let d = cdr_be.Wire.Codec.decoder "\007" in
  (match d.Wire.Codec.get_bool () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "bad bool byte");
  (* String with zero length is malformed (must include NUL). *)
  let d = cdr_be.Wire.Codec.decoder "\000\000\000\000" in
  match d.Wire.Codec.get_string () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "zero-length CDR string"

let test_size_comparison () =
  (* Sanity for bench §E2/§E15: for numeric payloads CDR is denser than
     text and HCX denser still (varints beat fixed 4-byte longs); all
     codecs grow linearly in sequence length. *)
  let seq n = W.Seq (List.init n (fun i -> W.Long (1000000 + i))) in
  let size codec v =
    let e = codec.Wire.Codec.encoder () in
    W.encode e v;
    String.length (e.Wire.Codec.finish ())
  in
  Alcotest.(check bool) "cdr denser for longs" true
    (size cdr_be (seq 64) < size text (seq 64));
  Alcotest.(check bool) "hcx denser than cdr" true
    (size hcx (seq 64) < size cdr_be (seq 64));
  Alcotest.(check bool) "text grows" true (size text (seq 128) > size text (seq 64))

(* ---------------- HCX specifics ---------------- *)

(* Encode one value through HCX and strip the leading version byte, so
   assertions below talk about the field encoding alone. *)
let hcx_field put =
  let e = hcx.Wire.Codec.encoder () in
  put e;
  let p = e.Wire.Codec.finish () in
  Alcotest.(check char) "version byte" '\001' p.[0];
  String.sub p 1 (String.length p - 1)

let test_hcx_version_byte () =
  let e = hcx.Wire.Codec.encoder () in
  e.Wire.Codec.put_long 7;
  let p = e.Wire.Codec.finish () in
  Alcotest.(check char) "leading byte is the format version" '\001' p.[0];
  (* A frame from a future encoder fails at decoder construction,
     before any field is interpreted. *)
  let bogus = "\002" ^ String.sub p 1 (String.length p - 1) in
  match hcx.Wire.Codec.decoder bogus with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "expected version rejection"

let test_hcx_varint_layout () =
  (* LEB128, LSB group first, minimal length. *)
  let ulong v = hcx_field (fun e -> e.Wire.Codec.put_ulong v) in
  Alcotest.(check string) "0 is one byte" "\000" (ulong 0);
  Alcotest.(check string) "127 is one byte" "\127" (ulong 127);
  Alcotest.(check string) "128 is two bytes" "\128\001" (ulong 128);
  Alcotest.(check string) "300 = ac 02" "\172\002" (ulong 300);
  Alcotest.(check string) "2^32-1 is five bytes" "\255\255\255\255\015"
    (ulong 4294967295);
  (* Signed values zigzag before the varint. *)
  let long v = hcx_field (fun e -> e.Wire.Codec.put_long v) in
  Alcotest.(check string) "-1 zigzags to 1" "\001" (long (-1));
  Alcotest.(check string) "1 zigzags to 2" "\002" (long 1);
  Alcotest.(check string) "min long is five bytes" "\255\255\255\255\015"
    (long (-2147483648))

let test_hcx_no_padding () =
  (* octet then double: version + 1 + 8 = 10 bytes, no alignment holes
     (the same pair costs 16 payload bytes in CDR). *)
  let e = hcx.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 1;
  e.Wire.Codec.put_double 1.0;
  Alcotest.(check int) "no alignment padding" 10
    (String.length (e.Wire.Codec.finish ()))

let test_hcx_boundary_varints () =
  (* Every LEB128 group boundary, both signs, both integer widths. *)
  List.iter
    (fun v ->
      match roundtrip hcx (W.Long v) with
      | W.Long got -> Alcotest.(check int) (string_of_int v) v got
      | _ -> Alcotest.fail "long shape")
    [ 0; 1; -1; 127; 128; 129; 16383; 16384; 2097151; 2097152;
      2147483647; -2147483648 ];
  List.iter
    (fun v ->
      match roundtrip hcx (W.Ulong v) with
      | W.Ulong got -> Alcotest.(check int) (string_of_int v) v got
      | _ -> Alcotest.fail "ulong shape")
    [ 0; 127; 128; 16384; 4294967295 ];
  List.iter
    (fun v ->
      match roundtrip hcx (W.Longlong v) with
      | W.Longlong got ->
          Alcotest.(check int64) (Int64.to_string v) v got
      | _ -> Alcotest.fail "longlong shape")
    [ 0L; -1L; Int64.min_int; Int64.max_int ];
  match roundtrip hcx (W.Ulonglong (-1L)) with
  | W.Ulonglong got -> Alcotest.(check int64) "2^64-1" (-1L) got
  | _ -> Alcotest.fail "ulonglong shape"

let test_hcx_truncated_varint () =
  (* A continuation bit with no following byte must fail as truncation,
     not read past the frame. *)
  let d = hcx.Wire.Codec.decoder "\001\128" in
  (match d.Wire.Codec.get_ulong () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "truncated varint accepted");
  (* More groups than any encoder emits is rejected by arithmetic. *)
  let d = hcx.Wire.Codec.decoder ("\001" ^ String.make 10 '\255' ^ "\001") in
  match d.Wire.Codec.get_ulong () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "over-long varint accepted"

let test_hcx_hostile_lengths () =
  (* A hostile length prefix fails before allocation: a claimed
     4-billion-byte string on a tiny frame. *)
  let e = hcx.Wire.Codec.encoder () in
  e.Wire.Codec.put_ulong 4294967295;
  let p = e.Wire.Codec.finish () in
  let d = hcx.Wire.Codec.decoder p in
  (match d.Wire.Codec.get_string () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "hostile string length accepted");
  let d = hcx.Wire.Codec.decoder p in
  match d.Wire.Codec.get_len () with
  | exception Wire.Codec.Type_error _ -> ()
  | _ -> Alcotest.fail "hostile sequence length accepted"

(* ---------------- HCX varints near the end of a payload ---------------- *)

(* The decoder's varint loop tests the payload's end inline, once per
   byte. These properties place every varint 0-12 bytes from the
   payload's end, so each value is decoded both well inside the payload
   and with its last group on the final byte, and every hostile tail is
   cut at each possible length. *)

type vkind =
  | K_short
  | K_ushort
  | K_long
  | K_ulong
  | K_len
  | K_strlen
  | K_longlong
  | K_ulonglong

let vkind_name = function
  | K_short -> "short"
  | K_ushort -> "ushort"
  | K_long -> "long"
  | K_ulong -> "ulong"
  | K_len -> "len"
  | K_strlen -> "string length"
  | K_longlong -> "longlong"
  | K_ulonglong -> "ulonglong"

(* Inclusive ranges of the int kinds; the 64-bit kinds take any int64. *)
let vkind_range = function
  | K_short -> Some (-32768, 32767)
  | K_ushort -> Some (0, 65535)
  | K_long -> Some (-2147483648, 2147483647)
  | K_ulong | K_len -> Some (0, 4294967295)
  | K_strlen -> Some (0, (1 lsl 21) + 1)
  | K_longlong | K_ulonglong -> None

(* Both sides of every 7-bit group boundary, of its zigzag image, and
   of their negations, plus the named extremes. *)
let varint_boundaries =
  List.concat_map
    (fun j ->
      let b = Int64.shift_left 1L (7 * j) in
      List.concat_map
        (fun x ->
          [ Int64.pred x; x; Int64.succ x; Int64.neg (Int64.pred x);
            Int64.neg x; Int64.neg (Int64.succ x) ])
        [ b; Int64.shift_right b 1 ])
    (List.init 10 Fun.id)
  @ [ Int64.min_int; Int64.max_int; 4294967295L; 2147483647L; -2147483648L;
      32767L; -32768L; 65535L ]

let gen_varint_case =
  QCheck.Gen.(
    let* kind =
      oneofl
        [ K_short; K_ushort; K_long; K_ulong; K_len; K_strlen; K_longlong;
          K_ulonglong ]
    in
    let* v =
      match vkind_range kind with
      | Some (lo, hi) ->
          let edges =
            List.filter
              (fun x -> Int64.compare x (Int64.of_int lo) >= 0
                        && Int64.compare x (Int64.of_int hi) <= 0)
              varint_boundaries
          in
          let hi = if kind = K_strlen then 300 else hi in
          oneof [ oneofl edges; map Int64.of_int (int_range lo hi) ]
      | None -> oneof [ oneofl varint_boundaries; ui64 ]
    in
    let* tail = int_range 0 12 in
    return (kind, v, tail))

let put_kind (e : Wire.Codec.encoder) kind v =
  match kind with
  | K_short -> e.put_short (Int64.to_int v)
  | K_ushort -> e.put_ushort (Int64.to_int v)
  | K_long -> e.put_long (Int64.to_int v)
  | K_ulong -> e.put_ulong (Int64.to_int v)
  | K_len -> e.put_len (Int64.to_int v)
  | K_strlen -> e.put_string (String.make (Int64.to_int v) 's')
  | K_longlong -> e.put_longlong v
  | K_ulonglong -> e.put_ulonglong v

let get_kind (d : Wire.Codec.decoder) kind =
  match kind with
  | K_short -> Int64.of_int (d.get_short ())
  | K_ushort -> Int64.of_int (d.get_ushort ())
  | K_long -> Int64.of_int (d.get_long ())
  | K_ulong -> Int64.of_int (d.get_ulong ())
  | K_len -> Int64.of_int (d.get_len ())
  | K_strlen -> Int64.of_int (String.length (d.get_string ()))
  | K_longlong -> d.get_longlong ()
  | K_ulonglong -> d.get_ulonglong ()

let varint_tail_prop =
  QCheck.Test.make ~count:2000 ~name:"hcx varints decode at every distance from the end"
    (QCheck.make
       ~print:(fun (k, v, t) ->
         Printf.sprintf "%s %Ld, %d bytes after" (vkind_name k) v t)
       gen_varint_case)
    (fun (kind, v, tail) ->
      (* The following field is a string of [tail - 1] bytes whose
         one-byte length makes the whole field [tail] bytes long. *)
      let follow = String.make (max 0 (tail - 1)) 'f' in
      let e = hcx.Wire.Codec.encoder () in
      put_kind e kind v;
      if tail > 0 then e.Wire.Codec.put_string follow;
      let p = e.Wire.Codec.finish () in
      let d = hcx.Wire.Codec.decoder_limited Wire.Codec.unlimited p in
      let got = get_kind d kind in
      let follow_ok = tail = 0 || d.Wire.Codec.get_string () = follow in
      Int64.equal got v && follow_ok && d.Wire.Codec.at_end ())

(* Reference LEB128, written from the format rules rather than from the
   decoder: the groups of one varint from [pos], or [None] when the
   bytes run out first. *)
let ref_groups s pos =
  let rec go i acc =
    if i >= String.length s then None
    else
      let b = Char.code s.[i] in
      if b land 0x80 <> 0 then go (i + 1) ((b land 0x7f) :: acc)
      else Some (List.rev (b :: acc), i + 1)
  in
  go pos []

(* At most ten groups, and no set bit at or past [bits]. *)
let ref_fits ~bits groups =
  List.length groups <= 10
  && List.for_all2
       (fun k g -> 7 * k + 7 <= bits || g lsr (max 0 (bits - 7 * k)) = 0)
       (List.init (List.length groups) Fun.id)
       groups

(* Value (or [None] for a Type_error) and the offset after it. *)
let ref_decode kind s =
  let uint ~bits =
    match ref_groups s 1 with
    | Some (gs, next) when ref_fits ~bits gs ->
        let v =
          List.fold_left
            (fun (acc, k) g ->
              (Int64.logor acc (Int64.shift_left (Int64.of_int g) (7 * k)), k + 1))
            (0L, 0) gs
          |> fst
        in
        Some (v, next)
    | _ -> None
  in
  let ranged max_v =
    match uint ~bits:62 with
    | Some (v, next) when Int64.compare v max_v <= 0 -> Some (Int64.to_int v, next)
    | _ -> None
  in
  let unzig v = (v lsr 1) lxor (- (v land 1)) in
  let signed max_v lo hi =
    match ranged max_v with
    | Some (z, next) ->
        let v = unzig z in
        if v < lo || v > hi then None else Some (Int64.of_int v, next)
    | None -> None
  in
  let unsigned max_v =
    Option.map (fun (v, next) -> (Int64.of_int v, next)) (ranged max_v)
  in
  match kind with
  | K_short -> signed 131071L (-32768) 32767
  | K_long -> signed 8589934591L (-2147483648) 2147483647
  | K_ushort -> unsigned 65535L
  | K_ulong | K_len -> unsigned 4294967295L
  | K_strlen -> (
      match uint ~bits:62 with
      | Some (n, next) when Int64.to_int n <= String.length s - next ->
          Some (n, next + Int64.to_int n)
      | _ -> None)
  | K_ulonglong -> uint ~bits:64
  | K_longlong ->
      Option.map
        (fun (v, next) ->
          ( Int64.logxor (Int64.shift_right_logical v 1)
              (Int64.neg (Int64.logand v 1L)),
            next ))
        (uint ~bits:64)

let gen_hostile_tail =
  QCheck.Gen.(
    let* kind =
      oneofl
        [ K_short; K_ushort; K_long; K_ulong; K_len; K_strlen; K_longlong;
          K_ulonglong ]
    in
    let* n = int_range 1 12 in
    let* bytes =
      list_repeat n
        (frequency
           [ (3, int_range 0x80 0xff); (1, int_range 0 0x7f) ]
        |> map Char.chr)
    in
    return (kind, String.of_seq (List.to_seq bytes)))

let varint_hostile_prop =
  QCheck.Test.make ~count:5000
    ~name:"hcx varints on hostile tails agree with a reference LEB128"
    (QCheck.make
       ~print:(fun (k, t) -> Printf.sprintf "%s %S" (vkind_name k) t)
       gen_hostile_tail)
    (fun (kind, tail) ->
      let p = "\001" ^ tail in
      let d = hcx.Wire.Codec.decoder_limited Wire.Codec.unlimited p in
      let got =
        match get_kind d kind with
        | v -> Some (v, d.Wire.Codec.at_end ())
        | exception Wire.Codec.Type_error _ -> None
      in
      let want =
        Option.map
          (fun (v, next) -> (v, next = String.length p))
          (ref_decode kind p)
      in
      got = want)

(* ---------------- HCX encode-buffer reuse ---------------- *)

(* Reference HCX encoding of a few field kinds, built by hand: what a
   fresh encoder that shares nothing must produce. *)
type field = F_ulong of int | F_string of string | F_double of float

let ref_uvarint b n =
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char b (Char.chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.chr !n)

let ref_encode fields =
  let b = Buffer.create 64 in
  Buffer.add_char b '\001';
  List.iter
    (function
      | F_ulong n -> ref_uvarint b n
      | F_string s ->
          ref_uvarint b (String.length s);
          Buffer.add_string b s
      | F_double f -> Buffer.add_int64_le b (Int64.bits_of_float f))
    fields;
  Buffer.contents b

let put_fields (e : Wire.Codec.encoder) =
  List.iter (function
    | F_ulong n -> e.put_ulong n
    | F_string s -> e.put_string s
    | F_double f -> e.put_double f)

let test_hcx_encoder_reuse () =
  let check what fields got =
    Alcotest.(check string) what (ref_encode fields) got
  in
  let a1 = [ F_ulong 1; F_string "alpha" ] and a2 = [ F_double 2.5 ] in
  let a3 = [ F_string "after finish"; F_ulong 300 ] in
  let b1 = [ F_string (String.make 200 'b') ] and b2 = [ F_ulong 70000 ] in
  let c = [ F_string "third"; F_ulong 5 ] in
  (* Two encoders live at once: at most one holds the cached buffer. *)
  let e1 = hcx.Wire.Codec.encoder () and e2 = hcx.Wire.Codec.encoder () in
  put_fields e1 a1;
  put_fields e2 b1;
  put_fields e1 a2;
  let r1 = e1.Wire.Codec.finish () in
  check "first finish" (a1 @ a2) r1;
  (* e3 takes the buffer e1 handed back; e1 must not write into it. *)
  let e3 = hcx.Wire.Codec.encoder () in
  put_fields e3 c;
  put_fields e1 a3;
  put_fields e2 b2;
  check "encoder reusing the returned buffer" c (e3.Wire.Codec.finish ());
  check "puts after finish keep every byte" (a1 @ a2 @ a3)
    (e1.Wire.Codec.finish ());
  check "finish is repeatable" (a1 @ a2 @ a3) (e1.Wire.Codec.finish ());
  check "first result unchanged" (a1 @ a2) r1;
  check "interleaved encoder" (b1 @ b2) (e2.Wire.Codec.finish ());
  (* A buffer grown past the retention cap is dropped, not cached; the
     next encoder still starts clean. *)
  let big = [ F_string (String.make (256 * 1024) 'x') ] in
  let e4 = hcx.Wire.Codec.encoder () in
  put_fields e4 big;
  check "over-cap message" big (e4.Wire.Codec.finish ());
  let e5 = hcx.Wire.Codec.encoder () in
  put_fields e5 c;
  check "after an over-cap message" c (e5.Wire.Codec.finish ())

let test_hcx_encoder_reuse_domains () =
  (* Two domains, each encoding 10^4 messages — some with a second
     encoder interleaved, some continuing after [finish] — and checking
     every result against the hand-built reference. *)
  let worker seed () =
    let rng = Random.State.make [| seed |] in
    let field () =
      match Random.State.int rng 3 with
      | 0 -> F_ulong (Random.State.int rng 0x3fffffff)
      | 1 ->
          let n =
            if Random.State.int rng 100 = 0 then 5000
            else Random.State.int rng 200
          in
          F_string (String.make n (Char.chr (97 + Random.State.int rng 26)))
      | _ -> F_double (Random.State.float rng 1e6)
    in
    let fields () = List.init (1 + Random.State.int rng 12) (fun _ -> field ()) in
    let bad = ref 0 in
    for _ = 1 to 10_000 do
      let f1 = fields () in
      let e1 = hcx.Wire.Codec.encoder () in
      put_fields e1 f1;
      (match Random.State.int rng 3 with
      | 0 ->
          let f2 = fields () in
          let e2 = hcx.Wire.Codec.encoder () in
          put_fields e2 f2;
          if e2.Wire.Codec.finish () <> ref_encode f2 then incr bad;
          if e1.Wire.Codec.finish () <> ref_encode f1 then incr bad
      | 1 ->
          let r = e1.Wire.Codec.finish () in
          let f3 = fields () in
          let e3 = hcx.Wire.Codec.encoder () in
          put_fields e3 f3;
          let f4 = fields () in
          put_fields e1 f4;
          if r <> ref_encode f1 then incr bad;
          if e3.Wire.Codec.finish () <> ref_encode f3 then incr bad;
          if e1.Wire.Codec.finish () <> ref_encode (f1 @ f4) then incr bad
      | _ -> if e1.Wire.Codec.finish () <> ref_encode f1 then incr bad)
    done;
    !bad
  in
  let ds = List.map (fun seed -> Domain.spawn (worker seed)) [ 1; 2 ] in
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 ds in
  Alcotest.(check int) "results differing from a fresh encoding" 0 bad

(* ---------------- decode limits ---------------- *)

let test_nesting_depth_pinned () =
  (* DESIGN.md and codec.mli both say depth 128; pin the number so the
     docs cannot silently diverge from the code again. *)
  Alcotest.(check int) "default nesting depth is 128" 128
    Wire.Codec.default_limits.Wire.Codec.max_nesting_depth;
  (* 128 nested get_begin are fine, the 129th trips — begin/end are
     byteless in HCX so the decoder's own counter is the only guard. *)
  let d = hcx.Wire.Codec.decoder "\001" in
  for _ = 1 to 128 do
    d.Wire.Codec.get_begin ()
  done;
  (match d.Wire.Codec.get_begin () with
  | exception Wire.Codec.Type_error _ -> ()
  | () -> Alcotest.fail "129th nesting level accepted");
  (* Balanced begin/end at the edge stays under the limit. *)
  let d = hcx.Wire.Codec.decoder "\001" in
  for _ = 1 to 3 do
    for _ = 1 to 128 do
      d.Wire.Codec.get_begin ()
    done;
    for _ = 1 to 128 do
      d.Wire.Codec.get_end ()
    done
  done;
  (* Custom limits apply to every codec's decoder_limited. *)
  let tiny =
    { Wire.Codec.default_limits with Wire.Codec.max_nesting_depth = 2 }
  in
  List.iter
    (fun codec ->
      let deep = W.Group [ W.Group [ W.Group [ W.Long 1 ] ] ] in
      let e = codec.Wire.Codec.encoder () in
      W.encode e deep;
      let p = e.Wire.Codec.finish () in
      match W.decode_like (codec.Wire.Codec.decoder_limited tiny p) deep with
      | exception Wire.Codec.Type_error _ -> ()
      | _ -> Alcotest.failf "%s: depth limit not enforced" codec.Wire.Codec.name)
    all_codecs

(* ---------------- round-trip property ---------------- *)

let gen_wvalue =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          map (fun b -> W.Bool b) bool;
          map (fun c -> W.Char c) (map Char.chr (int_bound 255));
          map (fun n -> W.Octet (abs n mod 256)) small_int;
          map (fun n -> W.Short (n mod 32768)) int;
          map (fun n -> W.Ushort (abs n mod 65536)) int;
          map (fun n -> W.Long (n mod 2147483648)) int;
          map (fun n -> W.Ulong (abs n mod 4294967296)) int;
          map (fun n -> W.Longlong (Int64.of_int n)) int;
          map (fun n -> W.Ulonglong (Int64.of_int n)) int;
          map (fun f -> W.Float f) (float_bound_inclusive 1e9);
          map (fun f -> W.Double f) (float_bound_inclusive 1e12);
          map (fun s -> W.String s) (string_size ~gen:printable (int_bound 40));
        ]
    in
    let rec tree depth =
      if depth = 0 then leaf
      else
        frequency
          [
            (4, leaf);
            ( 1,
              (* All sequence elements share the first element's shape so
                 that schema-guided decode applies. *)
              let* elem = tree 0 in
              let* n = int_bound 6 in
              let clone = function
                | W.Long _ -> map (fun v -> W.Long (v mod 2147483648)) int
                | W.String _ -> map (fun s -> W.String s) (string_size ~gen:printable (int_bound 20))
                | v -> return v
              in
              let* items = flatten_l (List.init n (fun _ -> clone elem)) in
              return (W.Seq items) );
            ( 1,
              let* items = list_size (int_bound 4) (tree (depth - 1)) in
              return (W.Group items) );
          ]
    in
    tree 3)

let roundtrip_prop codec =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%s round-trips" codec.Wire.Codec.name)
    (QCheck.make ~print:(Format.asprintf "%a" W.pp) gen_wvalue)
    (fun v -> W.equal v (roundtrip codec v))

(* Cross-codec: the same value tree encodes/decodes under every codec to
   the same result (protocol-independence of the Call abstraction). *)
let cross_codec_prop =
  QCheck.Test.make ~count:200 ~name:"codecs agree on decoded values"
    (QCheck.make ~print:(Format.asprintf "%a" W.pp) gen_wvalue)
    (fun v ->
      let results = List.map (fun c -> roundtrip c v) all_codecs in
      List.for_all (fun r -> W.equal r (List.hd results)) results)

let () =
  Alcotest.run "codecs"
    [
      ( "unit",
        [
          Alcotest.test_case "samples through all codecs" `Quick test_samples;
          Alcotest.test_case "empty sequences" `Quick test_empty_seq_needs_no_witness;
        ] );
      ( "text",
        [
          Alcotest.test_case "single line" `Quick test_text_is_single_line;
          Alcotest.test_case "human readable" `Quick test_text_human_readable;
          Alcotest.test_case "type checking" `Quick test_text_type_checking;
          Alcotest.test_case "range checks" `Quick test_text_range_checks;
          Alcotest.test_case "truncation" `Quick test_text_truncation;
          Alcotest.test_case "escapes" `Quick test_text_escape_roundtrip;
        ] );
      ( "cdr",
        [
          Alcotest.test_case "alignment" `Quick test_cdr_alignment;
          Alcotest.test_case "byte order" `Quick test_cdr_byte_order;
          Alcotest.test_case "string layout" `Quick test_cdr_string_format;
          Alcotest.test_case "truncation" `Quick test_cdr_truncation;
          Alcotest.test_case "malformed bytes" `Quick test_cdr_bad_bool_and_string;
          Alcotest.test_case "size comparison" `Quick test_size_comparison;
        ] );
      ( "hcx",
        [
          Alcotest.test_case "version byte" `Quick test_hcx_version_byte;
          Alcotest.test_case "varint layout" `Quick test_hcx_varint_layout;
          Alcotest.test_case "no padding" `Quick test_hcx_no_padding;
          Alcotest.test_case "boundary varints" `Quick test_hcx_boundary_varints;
          Alcotest.test_case "truncated + over-long varints" `Quick
            test_hcx_truncated_varint;
          Alcotest.test_case "hostile lengths" `Quick test_hcx_hostile_lengths;
          Alcotest.test_case "nesting depth pinned" `Quick
            test_nesting_depth_pinned;
          Alcotest.test_case "encode buffers are never shared" `Quick
            test_hcx_encoder_reuse;
          Alcotest.test_case "encode buffers across two domains" `Quick
            test_hcx_encoder_reuse_domains;
          QCheck_alcotest.to_alcotest varint_tail_prop;
          QCheck_alcotest.to_alcotest varint_hostile_prop;
        ] );
      ( "property",
        QCheck_alcotest.to_alcotest cross_codec_prop
        :: List.map (fun c -> QCheck_alcotest.to_alcotest (roundtrip_prop c)) all_codecs
      );
    ]
