type framing =
  | Line
  | Length_prefixed of { header : string }
  | Varint_prefixed of { magic : char }

type request = {
  req_id : int;
  target : Objref.t;
  operation : string;
  oneway : bool;
  payload : string;
  trace_ctx : string;  (* service context; "" = absent *)
  budget_us : int option;  (* remaining deadline budget, microseconds *)
  nego_offer : string;  (* codec-negotiation offer; "" = absent *)
}

type reply_status =
  | Status_ok
  | Status_user_exception of string
  | Status_system_error of string

type reply = {
  rep_id : int;
  status : reply_status;
  payload : string;
  nego_answer : string;  (* codec-negotiation answer; "" = absent *)
}

type message =
  | Request of request
  | Reply of reply
  | Locate_request of { req_id : int; target : Objref.t }
  | Locate_reply of { rep_id : int; found : bool; forward : Objref.t option }
  | Locate_forward of { rep_id : int; target : Objref.t }

type t = {
  name : string;
  version : int;
  codec : Wire.Codec.t;
  framing : framing;
  encode_message : message -> string;
  decode_message : string -> message;
  decode_limited : Wire.Codec.limits -> string -> message;
}

exception Protocol_error of string

let () =
  Printexc.register_printer (function
    | Protocol_error m -> Some (Printf.sprintf "Orb.Protocol_error: %s" m)
    | _ -> None)

let tag_request = 0
let tag_reply = 1
let tag_locate_request = 2
let tag_locate_reply = 3
let tag_locate_forward = 4

let status_to_int = function
  | Status_ok -> 0
  | Status_user_exception _ -> 1
  | Status_system_error _ -> 2

let status_to_string = function
  | Status_ok -> "ok"
  | Status_user_exception id -> "exception " ^ id
  | Status_system_error m -> "error " ^ m

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* Strict decimal: ASCII digits only, at most [max_digits] of them.
   [int_of_string_opt] would also take "0x10", "1_000", "+5" and "-0". *)
let decimal ~max_digits s =
  if
    s <> ""
    && String.length s <= max_digits
    && String.for_all (fun c -> c >= '0' && c <= '9') s
  then Some (int_of_string s)
  else None

(* ---------------- the trailer ---------------- *)

(* Everything the envelope grew after the paper rides in one counted
   string after the last historical field of [Request], [Reply] and
   [Locate_reply], written only when it holds an entry, so a message
   without one is the pre-slot encoding byte for byte. It opens with
   [trailer_format], a byte no positional-era slot could start with
   (contexts were lowercase hex or empty, budgets digits, offers and
   answers token characters, forwards '@'), followed by (tag, bytes)
   entries: a tag byte, a 16-bit big-endian length, the bytes. The
   string is built and parsed here, the same bytes in every codec. *)
let trailer_format = '~'
let tag_context, tag_budget, tag_offer, tag_answer, tag_forward =
  ('c', 'b', 'o', 'a', 'f')
let known_tags = "cboaf"
let max_trailer_entries = 8
let max_trailer_bytes = 4096

(* Absent entries are [""]. *)
let put_trailer (e : Wire.Codec.encoder) entries =
  match List.filter (fun (_, v) -> v <> "") entries with
  | [] -> ()
  | entries ->
      let b = Buffer.create 64 in
      Buffer.add_char b trailer_format;
      List.iter
        (fun (tag, v) ->
          Buffer.add_char b tag;
          Buffer.add_uint16_be b (String.length v);
          Buffer.add_string b v)
        entries;
      e.put_string (Buffer.contents b)

let parse_trailer s =
  let n = String.length s in
  if n > max_trailer_bytes then
    fail "trailer of %d bytes exceeds the %d-byte bound" n max_trailer_bytes;
  let rec entries i count acc =
    if i = n then acc
    else if count = max_trailer_entries then
      fail "trailer of more than %d entries" max_trailer_entries
    else if n - i < 3 then fail "trailer entry truncated"
    else
      let tag = s.[i] and l = String.get_uint16_be s (i + 1) in
      if l > n - i - 3 then fail "trailer entry of %d bytes runs past the end" l
      else if String.contains known_tags tag && List.mem_assoc tag acc then
        fail "duplicate trailer entry %C" tag
      else
        entries (i + 3 + l) (count + 1) ((tag, String.sub s (i + 3) l) :: acc)
  in
  entries 1 0 []

(* The entries after the last historical field. A first string without
   the format byte is a positional-era slot, read as the entry [first];
   later positional slots are never read. *)
let read_trailer (d : Wire.Codec.decoder) ~first =
  if d.at_end () then []
  else
    let s = d.get_string () in
    if s <> "" && s.[0] = trailer_format then parse_trailer s
    else [ (first, s) ]

(* The entry [tag] through its own check [f], or [absent]. Unknown tags
   and the tags of other message kinds are never looked up: skipped. *)
let entry entries tag ~absent f =
  match List.assoc_opt tag entries with Some v -> f v | None -> absent

let trace_context s =
  if String.length s > Obs.Trace.max_context_bytes then
    fail "trace context of %d bytes exceeds the %d-byte bound"
      (String.length s) Obs.Trace.max_context_bytes;
  s

(* Up to 18 digits: over 31,000 years, still inside [int]. *)
let budget s =
  match decimal ~max_digits:18 s with
  | Some b -> Some b
  | None -> fail "malformed deadline budget %S" s

(* Offers and answers have a tiny grammar (comma-separated
   [name/version] tokens): bound and charset-check them before any
   token is interpreted. *)
let nego what s =
  if String.length s > 256 then
    fail "%s of %d bytes exceeds the 256-byte bound" what (String.length s);
  String.iter
    (function
      | 'a' .. 'z' | '0' .. '9' | '/' | ',' | '.' | '-' | '_' -> ()
      | c -> fail "%s contains invalid byte 0x%02x" what (Char.code c))
    s;
  s

let reference what s =
  match Objref.of_string_opt s with
  | Some r -> r
  | None -> fail "malformed %s %S" what s

let generic ~name ?(version = 1) ~framing (codec : Wire.Codec.t) : t =
  let encode_message msg =
    let e = codec.Wire.Codec.encoder () in
    (match msg with
    | Request r ->
        e.put_octet tag_request;
        e.put_ulong r.req_id;
        e.put_bool r.oneway;
        e.put_string (Objref.to_string r.target);
        e.put_string r.operation;
        e.put_string r.payload;
        put_trailer e
          [
            (tag_context, r.trace_ctx);
            ( tag_budget,
              match r.budget_us with
              | Some b -> string_of_int (max 0 b)
              | None -> "" );
            (tag_offer, r.nego_offer);
          ]
    | Reply r ->
        e.put_octet tag_reply;
        e.put_ulong r.rep_id;
        e.put_octet (status_to_int r.status);
        e.put_string
          (match r.status with
          | Status_ok -> ""
          | Status_user_exception repo_id -> repo_id
          | Status_system_error message -> message);
        e.put_string r.payload;
        put_trailer e [ (tag_answer, r.nego_answer) ]
    | Locate_request { req_id; target } ->
        e.put_octet tag_locate_request;
        e.put_ulong req_id;
        e.put_string (Objref.to_string target)
    | Locate_reply { rep_id; found; forward } ->
        e.put_octet tag_locate_reply;
        e.put_ulong rep_id;
        e.put_bool found;
        put_trailer e
          [ (tag_forward, Option.fold ~none:"" ~some:Objref.to_string forward) ]
    | Locate_forward { rep_id; target } ->
        e.put_octet tag_locate_forward;
        e.put_ulong rep_id;
        e.put_string (Objref.to_string target));
    e.finish ()
  in
  let decode_limited limits bytes =
    let d =
      try codec.Wire.Codec.decoder_limited limits bytes
      with Wire.Codec.Type_error m -> raise (Protocol_error m)
    in
    (* Decode strictly in wire order (record-field evaluation order is
       unspecified in OCaml). *)
    try
      let tag = d.get_octet () in
      if tag = tag_request then (
        let req_id = d.get_ulong () in
        let oneway = d.get_bool () in
        let target_s = d.get_string () in
        let operation = d.get_string () in
        let payload = d.get_string () in
        let es = read_trailer d ~first:tag_context in
        let trace_ctx = entry es tag_context ~absent:"" trace_context in
        let budget_us = entry es tag_budget ~absent:None budget in
        let nego_offer =
          entry es tag_offer ~absent:"" (nego "negotiation offer")
        in
        let target = reference "target reference" target_s in
        Request
          { req_id; target; operation; oneway; payload; trace_ctx; budget_us;
            nego_offer })
      else if tag = tag_reply then (
        let rep_id = d.get_ulong () in
        let status_code = d.get_octet () in
        let detail = d.get_string () in
        let payload = d.get_string () in
        let status =
          match status_code with
          | 0 -> Status_ok
          | 1 -> Status_user_exception detail
          | 2 -> Status_system_error detail
          | n -> fail "unknown reply status %d" n
        in
        let nego_answer =
          entry (read_trailer d ~first:tag_answer) tag_answer ~absent:""
            (nego "negotiation answer")
        in
        Reply { rep_id; status; payload; nego_answer })
      else if tag = tag_locate_request then
        let req_id = d.get_ulong () in
        let target = reference "locate target" (d.get_string ()) in
        Locate_request { req_id; target }
      else if tag = tag_locate_reply then
        let rep_id = d.get_ulong () in
        let found = d.get_bool () in
        let forward =
          entry (read_trailer d ~first:tag_forward) tag_forward ~absent:None
            (fun s -> Some (reference "forward reference" s))
        in
        Locate_reply { rep_id; found; forward }
      else if tag = tag_locate_forward then
        let rep_id = d.get_ulong () in
        let target = reference "forward target" (d.get_string ()) in
        Locate_forward { rep_id; target }
      else fail "unknown message tag %d" tag
    with Wire.Codec.Type_error m -> raise (Protocol_error m)
  in
  let decode_message bytes = decode_limited Wire.Codec.default_limits bytes in
  { name; version; codec; framing; encode_message; decode_message; decode_limited }

(* Best-effort request id of a frame that failed to decode: the tag and
   request id are the first two fields of every envelope, so they often
   survive a mutation further in. Lets the server's error reply carry
   the id the client is waiting on instead of 0. *)
let request_id_hint t bytes =
  match
    let d = t.codec.Wire.Codec.decoder bytes in
    let tag = d.Wire.Codec.get_octet () in
    if tag = tag_request || tag = tag_locate_request then
      Some (d.Wire.Codec.get_ulong ())
    else None
  with
  | v -> v
  | exception _ -> None

let text = generic ~name:"heidi-text" ~framing:Line Wire.Text_codec.codec

(* HCX: the compact binary codec over varint framing — one magic byte
   plus a varint body length, so the total framing overhead on a small
   message is 2-3 bytes. The 0xC8 magic is outside both printable ASCII
   (the text protocol) and "GIOP"'s first byte, so a protocol mix-up
   fails at the first frame, not mid-stream. *)
let hcx_magic = '\xC8'

let hcx =
  generic ~name:"hcx" ~version:Wire.Hcx_codec.version
    ~framing:(Varint_prefixed { magic = hcx_magic })
    Wire.Hcx_codec.codec

(* ---------------- codec negotiation grammar ---------------- *)

(* The offer and answer entries: comma-separated [name/version]
   tokens, client's preference order. The base protocol the offer rides
   on is the implicit last resort and is never listed. *)
module Nego = struct
  let token p = Printf.sprintf "%s/%d" p.name p.version

  let parse_token s =
    match String.index_opt s '/' with
    | None -> None
    | Some i -> (
        let name = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        match decimal ~max_digits:9 v with
        | Some v when name <> "" -> Some (name, v)
        | _ -> None)

  let offer_of supported = String.concat "," (List.map token supported)

  let split_tokens s = String.split_on_char ',' s |> List.filter (( <> ) "")

  (* Server side: pick the first client-offered codec we also speak and
     whose offered version our compatibility predicate accepts — the
     client's preference order decides, so both sides converge on the
     client's best mutually-compatible encoding. Returns the chosen
     protocol and the answer token (which echoes OUR version of the
     chosen codec; the offer's name, not its version, is the agreement —
     the predicate has already vouched for the version pair). *)
  let choose ~offer ~supported ~compatible =
    let rec first = function
      | [] -> None
      | tok :: rest -> (
          match parse_token tok with
          | None -> first rest
          | Some (name, offered_v) -> (
              match List.find_opt (fun p -> p.name = name) supported with
              | Some p when compatible ~name ~offered:offered_v ~local:p.version
                ->
                  Some (p, token p)
              | Some _ | None -> first rest))
    in
    first (split_tokens offer)

  (* Default version-compatibility predicate: exact version match. The
     analysis layer's IDL-evolution verdict (V301-V304) can be wired in
     instead via [Orb.create ?codec_compat] — a wire-breaking verdict
     between two versions of the codec's payload schema then vetoes the
     pair at negotiation time. *)
  let exact ~name:_ ~offered ~local = offered = local
end
