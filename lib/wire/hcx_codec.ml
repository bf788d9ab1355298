(* HCX ("heidi-compact") — the third wire encoding.

   Layout, in wire order:

     version   1 byte, currently 0x01; a decoder seeing any other value
               fails immediately, before touching the rest of the frame
     bool      1 byte, 0x00 / 0x01
     char      1 raw byte
     octet     1 raw byte
     ushort    unsigned LEB128 varint (1-3 bytes)
     ulong     unsigned LEB128 varint (1-5 bytes)
     short     zigzag + unsigned LEB128 varint
     long      zigzag + unsigned LEB128 varint
     ulonglong unsigned LEB128 varint (1-10 bytes)
     longlong  zigzag + unsigned LEB128 varint
     float     4 bytes, IEEE-754 single, little-endian, unaligned
     double    8 bytes, IEEE-754 double, little-endian, unaligned
     string    uvarint byte count, then the raw bytes (no terminator)
     len       uvarint element count
     begin/end byteless; nesting depth is tracked by the decoder against
               [Codec.limits.max_nesting_depth]

   Unlike CDR there is no alignment padding, so positions never depend
   on what came before. The decoder reads a sub-range of a string in
   place — on receive, the frame's bytes where they lie in the
   channel's read buffer — and error offsets count from the start of
   that range. The strings it decodes are its only allocations; the
   envelope's payload field is one [String.sub].

   The encoder writes into a {!Buf} taken from a one-slot-per-domain
   cache and handed back by [finish], so a steady stream of messages
   reuses one buffer. A long string (a payload put into its envelope)
   is kept by reference, not copied: [finish_slices] hands it back as
   its own slice, between the head and the trailer, for a gathered
   write; [finish] copies everything once into the result string.
   Varints up to 63 bits are written with one capacity check per
   value; every varint is read by one loop whose bounds test is an
   inline compare per byte. *)

let version = 1

(* ---------------- varints ---------------- *)

let put_uvarint64 buf v =
  let v = ref v in
  while Int64.unsigned_compare !v 0x80L >= 0 do
    Buf.add_char buf
      (Char.unsafe_chr (Int64.to_int (Int64.logand !v 0x7fL) lor 0x80));
    v := Int64.shift_right_logical !v 7
  done;
  Buf.add_char buf (Char.unsafe_chr (Int64.to_int !v))

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (- (v land 1))
let zigzag64 v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag64 v =
  Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))

(* ---------------- encoding ---------------- *)

(* Encode buffers are reused through one atomic slot per domain (by
   domain id, modulo the table size): an encoder takes the slot's
   buffer, or grows a fresh one when the slot is empty because another
   encoder holds it, and [finish] puts it back. The exchange keeps a
   buffer with one owner even when systhreads of one domain, or two
   domains whose ids collide, share a slot. A buffer grown past
   [retain_cap] is left to the GC instead. The cap is low on purpose:
   on heidi_bulk, also keeping the 128 KiB buffers its largest frames
   grow made the top major heap 1.7x as large and peak RSS 10-24%
   higher, for no CPU gain that showed above the run-to-run noise. *)
let retain_cap = 1 lsl 16

let slots = Array.init 16 (fun _ -> Atomic.make None)
let slot () = slots.((Domain.self () :> int) land 15)

let acquire () =
  match Atomic.exchange (slot ()) None with
  | Some buf -> buf
  | None -> Buf.create ~initial:128 ()

(* Cleared before it is cached, so the cache holds no reference to a
   finished message's strings. *)
let release buf =
  if Buf.capacity buf <= retain_cap then begin
    Buf.clear buf;
    Atomic.set (slot ()) (Some buf)
  end

let make_encoder () : Codec.encoder =
  let cur = ref (acquire ()) in
  Buf.add_char !cur (Char.chr version);
  (* The first finish returns the buffer to the cache and remembers its
     result here, as slices; the encoder never touches that buffer
     again. A put after a finish continues in a private buffer seeded
     with the result, so a later finish still returns every byte put. *)
  let finished = ref None in
  let buf () =
    match !finished with
    | None -> !cur
    | Some slices ->
        let b = Buf.create ~initial:128 () in
        List.iter (Buf.add_string b) slices;
        cur := b;
        finished := None;
        b
  in
  let finish_with take =
    match !finished with
    | Some slices -> slices
    | None ->
        let slices = take !cur in
        release !cur;
        finished := Some slices;
        slices
  in
  let put_ulong v =
    Buf.add_uvarint (buf ())
      (Codec.range_check "unsigned long" ~min:0 ~max:4294967295 v)
  in
  {
    put_bool = (fun b -> Buf.add_char (buf ()) (if b then '\001' else '\000'));
    put_char = (fun c -> Buf.add_char (buf ()) c);
    put_octet =
      (fun v ->
        Buf.add_char (buf ())
          (Char.chr (Codec.range_check "octet" ~min:0 ~max:255 v)));
    put_short =
      (fun v ->
        Buf.add_uvarint (buf ())
          (zigzag (Codec.range_check "short" ~min:(-32768) ~max:32767 v)));
    put_ushort =
      (fun v ->
        Buf.add_uvarint (buf ())
          (Codec.range_check "unsigned short" ~min:0 ~max:65535 v));
    put_long =
      (fun v ->
        Buf.add_uvarint (buf ())
          (zigzag (Codec.range_check "long" ~min:(-2147483648) ~max:2147483647 v)));
    put_ulong;
    put_longlong = (fun v -> put_uvarint64 (buf ()) (zigzag64 v));
    put_ulonglong = (fun v -> put_uvarint64 (buf ()) v);
    put_float = (fun v -> Buf.add_int32_le (buf ()) (Int32.bits_of_float v));
    put_double = (fun v -> Buf.add_int64_le (buf ()) (Int64.bits_of_float v));
    put_string =
      (fun s ->
        let b = buf () in
        Buf.add_uvarint b (String.length s);
        Buf.add_string b s);
    put_begin = (fun () -> ());
    put_end = (fun () -> ());
    put_len = put_ulong;
    finish =
      (fun () ->
        let s = Codec.concat (finish_with (fun b -> [ Buf.contents b ])) in
        finished := Some [ s ];
        s);
    finish_slices = (fun () -> finish_with Buf.slices);
  }

(* ---------------- decoding ---------------- *)

(* Every read is positional in [payload.[base .. stop-1]]; nothing of
   it is copied but the strings decoded out of it. [pos] is absolute;
   errors name it relative to [base]. *)
let make_decoder_sub (limits : Codec.limits) payload ~pos:base ~len :
    Codec.decoder =
  let pos = ref base in
  let stop = base + len in
  let depth = ref 0 in
  let need n what =
    if !pos + n > stop then
      raise
        (Codec.Type_error
           (Printf.sprintf "truncated HCX payload: need %d bytes for %s at offset %d"
              n what (!pos - base)))
  in
  let byte what =
    need 1 what;
    let c = String.unsafe_get payload !pos in
    incr pos;
    c
  in
  (* One loop for every varint, with the bounds test written inline
     (no [byte]/[need] call per byte); [need] is called only to raise
     the truncation error. Cap at [max_int]: a 9th group reaching bit
     62 (the sign bit), or any set bit in a 10th, is not a value any
     encoder produces — reject the frame rather than wrap. *)
  let get_uvarint what =
    let p = ref !pos and v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if !p >= stop then begin
        pos := !p;
        need 1 what
      end;
      let b = Char.code (String.unsafe_get payload !p) in
      incr p;
      if (!shift = 56 && b land 0x40 <> 0)
         || (!shift > 56 && b lsr (63 - !shift) > 0)
      then begin
        pos := !p;
        raise
          (Codec.Type_error
             (Printf.sprintf "over-long varint for %s at offset %d" what
                (!p - base)))
      end;
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := b land 0x80 <> 0
    done;
    pos := !p;
    !v
  in
  let get_uvarint64 what =
    let v = ref 0L and shift = ref 0 and continue = ref true in
    while !continue do
      let b = Char.code (byte what) in
      if !shift = 63 && b > 1 then
        raise
          (Codec.Type_error
             (Printf.sprintf "over-long varint for %s at offset %d" what
                (!pos - base)))
      else if !shift > 63 then
        raise
          (Codec.Type_error
             (Printf.sprintf "over-long varint for %s at offset %d" what
                (!pos - base)));
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7f)) !shift);
      shift := !shift + 7;
      continue := b land 0x80 <> 0
    done;
    !v
  in
  let get32_le what =
    need 4 what;
    let v = String.get_int32_le payload !pos in
    pos := !pos + 4;
    v
  in
  let get64_le what =
    need 8 what;
    let v = String.get_int64_le payload !pos in
    pos := !pos + 8;
    v
  in
  let ranged what max_v =
    let v = get_uvarint what in
    if v > max_v then
      raise
        (Codec.Type_error
           (Printf.sprintf "%s value %d out of range (max %d)" what v max_v));
    v
  in
  let get_ulong () = ranged "unsigned long" 4294967295 in
  let get_string () =
    let n = get_uvarint "string length" in
    if n > limits.Codec.max_string_bytes then
      raise
        (Codec.Type_error
           (Printf.sprintf "string of %d bytes exceeds limit %d" n
              limits.Codec.max_string_bytes));
    need n "string body";
    let s = String.sub payload !pos n in
    pos := !pos + n;
    s
  in
  (* The version byte is the very first check: a frame from a future
     encoder fails here, before any field is interpreted. *)
  (let v = Char.code (byte "version byte") in
   if v <> version then
     raise
       (Codec.Type_error
          (Printf.sprintf "unsupported HCX version %d (this decoder speaks %d)" v
             version)));
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
        let v = unzigzag (ranged "short" 131071) in
        if v < -32768 || v > 32767 then
          raise (Codec.Type_error (Printf.sprintf "short value %d out of range" v));
        v);
    get_ushort = (fun () -> ranged "unsigned short" 65535);
    get_long =
      (fun () ->
        let v = unzigzag (ranged "long" 8589934591) in
        if v < -2147483648 || v > 2147483647 then
          raise (Codec.Type_error (Printf.sprintf "long value %d out of range" v));
        v);
    get_ulong;
    get_longlong = (fun () -> unzigzag64 (get_uvarint64 "long long"));
    get_ulonglong = (fun () -> get_uvarint64 "unsigned long long");
    get_float = (fun () -> Int32.float_of_bits (get32_le "float"));
    get_double = (fun () -> Int64.float_of_bits (get64_le "double"));
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

let codec = Codec.make ~name:"hcx" ~encoder:make_encoder make_decoder_sub
