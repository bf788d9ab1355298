type t = {
  (* Separate send and receive protocols: a negotiated codec switch
     takes effect at different frame boundaries in each direction (the
     server answers the offering request in the old encoding but must
     already read the next request in the new one; mirrored on the
     client), so the two sides of the stream are re-pointed
     independently by [set_protocol]. *)
  mutable sproto : Protocol.t;
  mutable rproto : Protocol.t;
  chan : Transport.channel;
  limits : Wire.Codec.limits;
  mutable closed : bool;
}

let wrap ?(limits = Wire.Codec.default_limits) proto chan =
  { sproto = proto; rproto = proto; chan; limits; closed = false }

let set_protocol ?(dir = `Both) t proto =
  (match dir with `Both | `Send -> t.sproto <- proto | `Recv -> ());
  match dir with `Both | `Recv -> t.rproto <- proto | `Send -> ()

(* Length-prefixed framing: magic header, 8 hex digits of body length,
   newline (for telnet-friendliness of the header even in binary
   protocols), then the body bytes. *)

(* Fixed-width lowercase hex, written without Printf: the length prefix
   is on the per-message send path. *)
let add_hex8 buf n =
  for shift = 28 downto 0 do
    if shift mod 4 = 0 then begin
      let d = (n lsr shift) land 0xf in
      Buffer.add_char buf
        (if d < 10 then Char.chr (Char.code '0' + d)
         else Char.chr (Char.code 'a' + d - 10))
    end
  done

(* Varint framing: one magic byte, then the body length as an unsigned
   LEB128 varint — 2-3 bytes of framing on ordinary messages. *)
let add_uvarint buf n =
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

(* Bodies up to this size are concatenated with their frame header and
   written in one syscall; larger bodies go through the channel's
   [writev] as header + body slices — no coalescing copy of the
   payload. The threshold keeps the common small-frame case a single
   packet under TCP_NODELAY (a tiny header-only segment would otherwise
   go out on its own). *)
let coalesce_limit = 4096

(* Frame header + body: a small body is copied once, next to its
   header; a large one goes out as its own slice. *)
let send_framed t ~mk_header body =
  let blen = String.length body in
  let hdr = Buffer.create 16 in
  mk_header hdr blen;
  if blen <= coalesce_limit then begin
    let hlen = Buffer.length hdr in
    let frame = Bytes.create (hlen + blen) in
    Buffer.blit hdr 0 frame 0 hlen;
    Bytes.blit_string body 0 frame hlen blen;
    t.chan.Transport.write (Bytes.unsafe_to_string frame)
  end
  else
    (* The caller already serializes sends per connection, so the
       header and body slices stay adjacent on the wire. *)
    t.chan.Transport.writev [ Buffer.contents hdr; body ]

let send ?(proto : Protocol.t option) t msg =
  let proto = match proto with Some p -> p | None -> t.sproto in
  let body = proto.Protocol.encode_message msg in
  match proto.Protocol.framing with
  | Protocol.Line ->
      if String.contains body '\n' then
        raise
          (Protocol.Protocol_error
             "line-framed message bodies must not contain newlines");
      t.chan.Transport.write (body ^ "\n")
  | Protocol.Length_prefixed { header } ->
      send_framed t body ~mk_header:(fun buf blen ->
          Buffer.add_string buf header;
          add_hex8 buf blen;
          Buffer.add_char buf '\n')
  | Protocol.Varint_prefixed { magic } ->
      send_framed t body ~mk_header:(fun buf blen ->
          Buffer.add_char buf magic;
          add_uvarint buf blen)

type recv_error = { reason : string; req_id_hint : int option }

(* The recoverable/fatal split a hardened server needs: [Error] means
   the frame was malformed or over-limit but fully consumed — the byte
   stream is still synchronized, so the caller can answer with an error
   reply and keep serving the connection. Exceptions mean the stream
   state is unknown (bad header, I/O failure): close the connection. *)
let recv_opt t =
  let decode body =
    match t.rproto.Protocol.decode_limited t.limits body with
    | msg -> Ok msg
    | exception Protocol.Protocol_error reason ->
        Error { reason; req_id_hint = Protocol.request_id_hint t.rproto body }
  in
  (* Consume the advertised body in bounded chunks — the peer declared
     it honestly, so after the discard the stream is synchronized and an
     error reply can be delivered. *)
  let discard_body len =
    let remaining = ref len in
    while !remaining > 0 do
      let n = min !remaining 65536 in
      ignore (t.chan.Transport.read_exact n);
      remaining := !remaining - n
    done;
    Error
      {
        reason =
          Printf.sprintf "frame of %d bytes exceeds limit %d" len
            t.limits.Wire.Codec.max_frame_bytes;
        req_id_hint = None;
      }
  in
  (* Each line read is bounded while the frame is still in flight: for
     line framing the line IS the frame, so its limit is the frame
     limit; for length-prefixed framing only the short fixed-size
     header travels on a line; varint framing never reads lines. *)
  match t.rproto.Protocol.framing with
  | Protocol.Line -> (
      match t.chan.Transport.read_line ~max:t.limits.Wire.Codec.max_frame_bytes with
      | line -> decode line
      | exception Transport.Frame_limit reason ->
          (* The transport discarded the oversized line through its
             newline: synchronized, recoverable. *)
          Error { reason; req_id_hint = None })
  | Protocol.Length_prefixed { header } ->
      let hline =
        try t.chan.Transport.read_line ~max:(String.length header + 64)
        with Transport.Frame_limit m ->
          (* Binary stream: resynchronizing on a newline is meaningless
             when the header itself is damaged. Fatal. *)
          raise (Protocol.Protocol_error m)
      in
      let hlen = String.length header in
      if String.length hline <> hlen + 8 || String.sub hline 0 hlen <> header then
        raise
          (Protocol.Protocol_error
             (Printf.sprintf "bad frame header %S (expected %S + length)" hline header));
      let len_hex = String.sub hline hlen 8 in
      let len =
        match int_of_string_opt ("0x" ^ len_hex) with
        | Some n when n >= 0 -> n
        | _ ->
            raise
              (Protocol.Protocol_error
                 (Printf.sprintf "bad frame length %S" len_hex))
      in
      if len > t.limits.Wire.Codec.max_frame_bytes then discard_body len
      else decode (t.chan.Transport.read_exact len)
  | Protocol.Varint_prefixed { magic } ->
      let m = (t.chan.Transport.read_exact 1).[0] in
      if m <> magic then
        (* The stream is positioned who-knows-where in a frame we cannot
           delimit: fatal. *)
        raise
          (Protocol.Protocol_error
             (Printf.sprintf "bad frame magic 0x%02x (expected 0x%02x)"
                (Char.code m) (Char.code magic)));
      (* Body length as LEB128, read byte-at-a-time (the transport
         buffers). More than 9 groups, or a 9th group reaching bit 62
         (the sign bit of an OCaml int), cannot be a length any encoder
         produced — and with the continuation bit's position unknown the
         stream cannot be resynchronized: fatal. *)
      let len =
        let v = ref 0 and shift = ref 0 and continue = ref true in
        while !continue do
          if !shift > 56 then
            raise (Protocol.Protocol_error "over-long frame length varint");
          let b = Char.code (t.chan.Transport.read_exact 1).[0] in
          if !shift = 56 && b land 0x40 <> 0 then
            raise (Protocol.Protocol_error "over-long frame length varint");
          v := !v lor ((b land 0x7f) lsl !shift);
          shift := !shift + 7;
          continue := b land 0x80 <> 0
        done;
        !v
      in
      if len > t.limits.Wire.Codec.max_frame_bytes then discard_body len
      else decode (t.chan.Transport.read_exact len)

let recv t =
  match recv_opt t with
  | Ok msg -> msg
  | Error { reason; _ } -> raise (Protocol.Protocol_error reason)

let close t =
  (* Mark first: even if the underlying close raises, the communicator
     must never again count as live (the server_connections gauge). *)
  t.closed <- true;
  t.chan.Transport.close ()

let is_closed t = t.closed
let peer t = t.chan.Transport.peer
let protocol ?(dir = `Send) t =
  match dir with `Send -> t.sproto | `Recv -> t.rproto
