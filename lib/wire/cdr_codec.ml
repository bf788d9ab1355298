type byte_order = Big_endian | Little_endian

(* ---------------- encoding ---------------- *)

(* Written into a {!Buf}, so a long string (a payload put into its
   envelope) is kept by reference and comes back from [finish_slices]
   as its own slice. Alignment counts the referenced bytes too. *)
let make_encoder order () : Codec.encoder =
  let buf = Buf.create ~initial:128 () in
  let align n =
    let pad = (n - (Buf.length buf mod n)) mod n in
    for _ = 1 to pad do
      Buf.add_char buf '\000'
    done
  in
  let add16, add32, add64 =
    match order with
    | Big_endian -> (Buf.add_uint16_be buf, Buf.add_int32_be buf, Buf.add_int64_be buf)
    | Little_endian ->
        (Buf.add_uint16_le buf, Buf.add_int32_le buf, Buf.add_int64_le buf)
  in
  let put_ulong v =
    let v = Codec.range_check "unsigned long" ~min:0 ~max:4294967295 v in
    align 4;
    add32 (Int32.of_int v)
  in
  let put_string s =
    (* ulong length including NUL, then bytes, then NUL. *)
    put_ulong (String.length s + 1);
    Buf.add_string buf s;
    Buf.add_char buf '\000'
  in
  {
    put_bool = (fun b -> Buf.add_char buf (if b then '\001' else '\000'));
    put_char = (fun c -> Buf.add_char buf c);
    put_octet =
      (fun v ->
        Buf.add_char buf (Char.chr (Codec.range_check "octet" ~min:0 ~max:255 v)));
    put_short =
      (fun v ->
        let v = Codec.range_check "short" ~min:(-32768) ~max:32767 v in
        align 2;
        add16 v);
    put_ushort =
      (fun v ->
        let v = Codec.range_check "unsigned short" ~min:0 ~max:65535 v in
        align 2;
        add16 v);
    put_long =
      (fun v ->
        let v = Codec.range_check "long" ~min:(-2147483648) ~max:2147483647 v in
        align 4;
        add32 (Int32.of_int v));
    put_ulong;
    put_longlong =
      (fun v ->
        align 8;
        add64 v);
    put_ulonglong =
      (fun v ->
        align 8;
        add64 v);
    put_float =
      (fun v ->
        align 4;
        add32 (Int32.bits_of_float v));
    put_double =
      (fun v ->
        align 8;
        add64 (Int64.bits_of_float v));
    put_string;
    put_begin = (fun () -> ());
    put_end = (fun () -> ());
    put_len = put_ulong;
    finish = (fun () -> Buf.contents buf);
    finish_slices = (fun () -> Buf.slices buf);
  }

(* ---------------- decoding ---------------- *)

(* Reads [payload.[base .. stop-1]] in place. [pos] is absolute;
   alignment and error offsets count from [base], the start of the
   encapsulation. *)
let make_decoder_sub order (limits : Codec.limits) payload ~pos:base ~len :
    Codec.decoder =
  let pos = ref base in
  let depth = ref 0 in
  let stop = base + len in
  let need n what =
    if !pos + n > stop then
      raise
        (Codec.Type_error
           (Printf.sprintf "truncated payload: need %d bytes for %s at offset %d"
              n what (!pos - base)))
  in
  let align n =
    let pad = (n - ((!pos - base) mod n)) mod n in
    pos := !pos + pad
  in
  let byte what =
    need 1 what;
    let c = payload.[!pos] in
    incr pos;
    c
  in
  let get16 what =
    align 2;
    need 2 what;
    let v =
      match order with
      | Big_endian -> String.get_uint16_be payload !pos
      | Little_endian -> String.get_uint16_le payload !pos
    in
    pos := !pos + 2;
    v
  in
  let get32 what =
    align 4;
    need 4 what;
    let v =
      match order with
      | Big_endian -> String.get_int32_be payload !pos
      | Little_endian -> String.get_int32_le payload !pos
    in
    pos := !pos + 4;
    v
  in
  let get64 what =
    align 8;
    need 8 what;
    let v =
      match order with
      | Big_endian -> String.get_int64_be payload !pos
      | Little_endian -> String.get_int64_le payload !pos
    in
    pos := !pos + 8;
    v
  in
  let get_ulong () =
    let v = Int32.to_int (get32 "unsigned long") in
    if v < 0 then v + 0x1_0000_0000 else v
  in
  let get_string () =
    let n = get_ulong () in
    if n = 0 then
      raise (Codec.Type_error "malformed CDR string: zero length (must include NUL)");
    if n - 1 > limits.Codec.max_string_bytes then
      raise
        (Codec.Type_error
           (Printf.sprintf "string of %d bytes exceeds limit %d" (n - 1)
              limits.Codec.max_string_bytes));
    need n "string body";
    let s = String.sub payload !pos (n - 1) in
    if payload.[!pos + n - 1] <> '\000' then
      raise (Codec.Type_error "malformed CDR string: missing NUL terminator");
    pos := !pos + n;
    s
  in
  {
    get_bool =
      (fun () ->
        match byte "boolean" with
        | '\000' -> false
        | '\001' -> true
        | c ->
            raise
              (Codec.Type_error
                 (Printf.sprintf "invalid boolean byte 0x%02x" (Char.code c))));
    get_char = (fun () -> byte "char");
    get_octet = (fun () -> Char.code (byte "octet"));
    get_short =
      (fun () ->
        let v = get16 "short" in
        if v >= 32768 then v - 65536 else v);
    get_ushort = (fun () -> get16 "unsigned short");
    get_long = (fun () -> Int32.to_int (get32 "long"));
    get_ulong;
    get_longlong = (fun () -> get64 "long long");
    get_ulonglong = (fun () -> get64 "unsigned long long");
    get_float = (fun () -> Int32.float_of_bits (get32 "float"));
    get_double = (fun () -> Int64.float_of_bits (get64 "double"));
    get_string;
    get_begin =
      (fun () ->
        incr depth;
        if !depth > limits.Codec.max_nesting_depth then
          raise
            (Codec.Type_error
               (Printf.sprintf "nesting depth %d exceeds limit %d" !depth
                  limits.Codec.max_nesting_depth)));
    get_end = (fun () -> if !depth > 0 then decr depth);
    get_len =
      (* CDR has no structural tokens, so a hostile length claim is the
         sole unbounded-allocation vector: cap it before any consumer
         sizes storage off it. *)
      (fun () ->
        let n = get_ulong () in
        if n > limits.Codec.max_sequence_length then
          raise
            (Codec.Type_error
               (Printf.sprintf "sequence length %d exceeds limit %d" n
                  limits.Codec.max_sequence_length));
        n);
    at_end = (fun () -> !pos >= stop);
  }

let codec order =
  Codec.make
    ~name:(match order with Big_endian -> "cdr-be" | Little_endian -> "cdr-le")
    ~encoder:(make_encoder order) (make_decoder_sub order)
