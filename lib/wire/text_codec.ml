let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let len = String.length s in
  let i = ref 0 in
  while !i < len do
    (match s.[!i] with
    | '\\' ->
        if !i + 1 >= len then raise (Codec.Type_error "truncated escape in string");
        (match s.[!i + 1] with
        | '\\' -> Buffer.add_char buf '\\'
        | '"' -> Buffer.add_char buf '"'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | c -> raise (Codec.Type_error (Printf.sprintf "unknown escape '\\%c'" c)));
        incr i
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

(* ---------------- encoding ---------------- *)

(* The encoder writes tokens straight into the output buffer: a sigil
   char plus [string_of_int]/[Int64.to_string] digits, with strings
   escaped directly into the buffer. The per-token [Printf.sprintf] this
   replaces dominated encode profiles — format-string interpretation and
   an intermediate string allocation per primitive put. Floats keep the
   lossless [%h] format, which has no cheap hand-rolled equivalent. *)
let make_encoder () : Codec.encoder =
  let buf = Buffer.create 128 in
  let sep () = if Buffer.length buf > 0 then Buffer.add_char buf ' ' in
  let token s =
    sep ();
    Buffer.add_string buf s
  in
  let sigil_int sigil v =
    sep ();
    Buffer.add_char buf sigil;
    Buffer.add_string buf (string_of_int v)
  in
  let int_token sigil what ~min ~max v =
    sigil_int sigil (Codec.range_check what ~min ~max v)
  in
  let sigil_int64 sigil v =
    sep ();
    Buffer.add_char buf sigil;
    Buffer.add_string buf (Int64.to_string v)
  in
  let escape_into s =
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s
  in
  {
    put_bool = (fun b -> token (if b then "bT" else "bF"));
    put_char = (fun c -> sigil_int 'c' (Char.code c));
    put_octet = (fun v -> int_token 'o' "octet" ~min:0 ~max:255 v);
    put_short = (fun v -> int_token 'h' "short" ~min:(-32768) ~max:32767 v);
    put_ushort = (fun v -> int_token 'H' "unsigned short" ~min:0 ~max:65535 v);
    put_long =
      (fun v -> int_token 'l' "long" ~min:(-2147483648) ~max:2147483647 v);
    put_ulong = (fun v -> int_token 'L' "unsigned long" ~min:0 ~max:4294967295 v);
    put_longlong = (fun v -> sigil_int64 'q' v);
    (* Unsigned 64-bit values are transported as their signed bit pattern
       so the token re-parses with Int64.of_string. *)
    put_ulonglong = (fun v -> sigil_int64 'Q' v);
    put_float = (fun v -> token (Printf.sprintf "e%h" v));
    put_double = (fun v -> token (Printf.sprintf "d%h" v));
    put_string =
      (fun s ->
        sep ();
        Buffer.add_string buf "s\"";
        escape_into s;
        Buffer.add_char buf '"');
    put_begin = (fun () -> token "{");
    put_end = (fun () -> token "}");
    put_len =
      (fun v -> sigil_int '#' (Codec.range_check "length" ~min:0 ~max:max_int v));
    finish = (fun () -> Buffer.contents buf);
    finish_slices = (fun () -> [ Buffer.contents buf ]);
  }

(* ---------------- decoding ---------------- *)

(* Split [payload.[pos .. stop-1]] into tokens; quote-aware for string
   tokens. *)
let tokenize payload ~pos ~stop:len =
  let toks = ref [] in
  let i = ref pos in
  while !i < len do
    match payload.[!i] with
    | ' ' | '\t' -> incr i
    | 's' when !i + 1 < len && payload.[!i + 1] = '"' ->
        let start = !i in
        i := !i + 2;
        let rec scan () =
          if !i >= len then raise (Codec.Type_error "unterminated string token")
          else
            match payload.[!i] with
            | '"' -> incr i
            | '\\' ->
                i := !i + 2;
                scan ()
            | _ ->
                incr i;
                scan ()
        in
        scan ();
        toks := String.sub payload start (!i - start) :: !toks
    | _ ->
        let start = !i in
        while !i < len && payload.[!i] <> ' ' && payload.[!i] <> '\t' do
          incr i
        done;
        toks := String.sub payload start (!i - start) :: !toks
  done;
  List.rev !toks

let make_decoder_sub (limits : Codec.limits) payload ~pos ~len : Codec.decoder =
  let toks = ref (tokenize payload ~pos ~stop:(pos + len)) in
  let depth = ref 0 in
  let next what =
    match !toks with
    | [] -> raise (Codec.Type_error (Printf.sprintf "expected %s, found end of payload" what))
    | t :: rest ->
        toks := rest;
        t
  in
  let expect_sigil what sigil =
    let t = next what in
    if String.length t = 0 || t.[0] <> sigil then
      raise
        (Codec.Type_error (Printf.sprintf "expected %s, found token %S" what t));
    String.sub t 1 (String.length t - 1)
  in
  let int_of what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> raise (Codec.Type_error (Printf.sprintf "malformed %s token %S" what s))
  in
  let int64_of what s =
    match Int64.of_string_opt s with
    | Some v -> v
    | None -> raise (Codec.Type_error (Printf.sprintf "malformed %s token %S" what s))
  in
  let float_of what s =
    match float_of_string_opt s with
    | Some v -> v
    | None -> raise (Codec.Type_error (Printf.sprintf "malformed %s token %S" what s))
  in
  let get_int what sigil ~min ~max () =
    Codec.range_check what ~min ~max (int_of what (expect_sigil what sigil))
  in
  {
    get_bool =
      (fun () ->
        match next "boolean" with
        | "bT" -> true
        | "bF" -> false
        | t -> raise (Codec.Type_error (Printf.sprintf "expected boolean, found %S" t)));
    get_char =
      (fun () ->
        let code = int_of "char" (expect_sigil "char" 'c') in
        if code < 0 || code > 255 then
          raise (Codec.Type_error (Printf.sprintf "char code %d out of range" code));
        Char.chr code);
    get_octet = get_int "octet" 'o' ~min:0 ~max:255;
    get_short = get_int "short" 'h' ~min:(-32768) ~max:32767;
    get_ushort = get_int "unsigned short" 'H' ~min:0 ~max:65535;
    get_long = get_int "long" 'l' ~min:(-2147483648) ~max:2147483647;
    get_ulong = get_int "unsigned long" 'L' ~min:0 ~max:4294967295;
    get_longlong = (fun () -> int64_of "long long" (expect_sigil "long long" 'q'));
    get_ulonglong =
      (fun () -> int64_of "unsigned long long" (expect_sigil "unsigned long long" 'Q'));
    get_float = (fun () -> float_of "float" (expect_sigil "float" 'e'));
    get_double = (fun () -> float_of "double" (expect_sigil "double" 'd'));
    get_string =
      (fun () ->
        let t = next "string" in
        let len = String.length t in
        if len < 3 || t.[0] <> 's' || t.[1] <> '"' || t.[len - 1] <> '"' then
          raise (Codec.Type_error (Printf.sprintf "expected string, found %S" t));
        (* The escaped token is already in memory (bounded by the frame
           limit), so unescape first and limit-check the real length. *)
        let s = unescape (String.sub t 2 (len - 3)) in
        if String.length s > limits.Codec.max_string_bytes then
          raise
            (Codec.Type_error
               (Printf.sprintf "string of %d bytes exceeds limit %d"
                  (String.length s) limits.Codec.max_string_bytes));
        s);
    get_begin =
      (fun () ->
        match next "'{'" with
        | "{" ->
            incr depth;
            if !depth > limits.Codec.max_nesting_depth then
              raise
                (Codec.Type_error
                   (Printf.sprintf "nesting depth %d exceeds limit %d" !depth
                      limits.Codec.max_nesting_depth))
        | t -> raise (Codec.Type_error (Printf.sprintf "expected '{', found %S" t)));
    get_end =
      (fun () ->
        match next "'}'" with
        | "}" -> if !depth > 0 then decr depth
        | t -> raise (Codec.Type_error (Printf.sprintf "expected '}', found %S" t)));
    get_len =
      (* An untrusted length prefix: a hostile [#4294967295] must fail
         here, before any consumer allocates storage for the claim. *)
      get_int "length" '#' ~min:0 ~max:limits.Codec.max_sequence_length;
    at_end = (fun () -> !toks = []);
  }

let codec = Codec.make ~name:"text" ~encoder:make_encoder make_decoder_sub
