(** ORB protocols: a marshaling codec plus a message framing and a
    request/reply envelope.

    Stubs and skeletons only ever see {!Wire.Codec} encoders/decoders, so
    "utilizing a particular protocol involves choosing the appropriate ORB
    run-time library" (paper Section 2) — here, passing a different
    [Protocol.t] to {!Orb.create}. Two protocols ship with the system: the
    HeidiRMI newline-terminated text protocol ({!text}) and the GIOP-like
    binary protocol (in the [Giop] library). *)

type framing =
  | Line  (** One message per newline-terminated line. *)
  | Length_prefixed of { header : string }
      (** [header ^ 8-hex-digit big-endian length ^ body] — the shape of a
          GIOP-style fixed header carrying a body length. The [header]
          magic identifies the protocol on the wire. *)
  | Varint_prefixed of { magic : char }
      (** [magic ^ LEB128 body length ^ body] — compact binary framing:
          2-3 bytes of overhead on ordinary messages instead of the
          fixed header's ~14. As with {!Length_prefixed}, a large body
          goes out as the slices of [encode_slices] through the
          transport's [writev], its payload uncopied, and is decoded on
          receive where it lies in the channel's read buffer
          ([decode_sub]). *)

(** {b The trailer.} Everything the envelope grew after the paper — the trace context,
    the deadline budget and the negotiation offer of a {!request}, the
    negotiation answer of a {!reply}, the forward of a [Locate_reply] —
    rides in one trailer: at most one counted string after the message's
    last historical field, written only when it holds an entry, so a
    message without one is the pre-slot encoding byte for byte in every
    codec. The string opens with the format byte ['~'], which no
    positional-era slot could start with, followed by (tag, bytes)
    entries: a tag byte (['c'] context, ['b'] budget, ['o'] offer,
    ['a'] answer, ['f'] forward), a LEB128 length, the bytes. Decoding
    skips unknown tags and the tags of other message kinds; a truncated
    entry, a duplicate known tag, more than 8 entries or more than
    4,096 bytes, and an entry that fails its own check are a
    recoverable {!Protocol_error}. A first trailing string without the
    format byte is read as that message's positional-era first slot (a
    trace context, an answer, a forward); later positional slots are
    ignored. Peers that predate the trailer read it as an opaque trace
    context and start a fresh root span (DESIGN.md §13, "Trailer"). *)

type request = {
  req_id : int;
  target : Objref.t;
  operation : string;
  oneway : bool;
  payload : string;  (** Codec-encoded arguments. *)
  trace_ctx : string;
      (** The trace context of the observability layer (see
          [Obs.Trace]); [""] = absent. At most
          [Obs.Trace.max_context_bytes]. *)
  budget_us : int option;
      (** The caller's remaining call budget in microseconds,
          {e relative} (no clock synchronization assumed: the receiver
          anchors it to its own receive time). Sent as ASCII decimal
          digits, at most 18 of them. *)
  nego_offer : string;
      (** Codec-negotiation offer (see {!Nego} for the token grammar),
          carried by the first request on a connection; [""] = absent.
          At most 256 bytes of the token charset. *)
}

type reply_status =
  | Status_ok
  | Status_user_exception of string  (** Exception repository ID. *)
  | Status_system_error of string  (** Human-readable error. *)

type reply = {
  rep_id : int;
  status : reply_status;
  payload : string;
  nego_answer : string;
      (** Codec-negotiation answer: the server's chosen codec token (see
          {!Nego}), carried by the reply to an offering request; [""] =
          absent. Same bound as the offer. *)
}

val status_to_string : reply_status -> string
(** Human-readable status for logs and interceptors. *)

type message =
  | Request of request
  | Reply of reply
  | Locate_request of { req_id : int; target : Objref.t }
      (** GIOP's LocateRequest: "is this object here?" — answered without
          dispatching anything. *)
  | Locate_reply of { rep_id : int; found : bool; forward : Objref.t option }
      (** [forward] is the GIOP OBJECT_FORWARD answer — "it lives there
          now", carried in the trailer. A client that predates the
          trailer fails to decode a forward, recoverably. *)
  | Locate_forward of { rep_id : int; target : Objref.t }
      (** GIOP's LOCATION_FORWARD reply status: sent instead of a
          {!Reply} when the requested object has moved; the client
          should re-issue the request against [target]. *)

type t = {
  name : string;
  version : int;
      (** Wire-format version of this protocol's encoding, as used in
          negotiation tokens ({!Nego.token}). Codecs with an explicit
          on-the-wire version byte (HCX) report it here; others are 1. *)
  codec : Wire.Codec.t;
  framing : framing;
  encode_slices : message -> string list;
      (** The encoded message as slices for a gathered write (the
          codec's [finish_slices]): a long payload comes back as its own
          slice, uncopied, between the envelope's head and trailer. *)
  encode_message : message -> string;
      (** The slices of [encode_slices], joined. *)
  decode_sub : Wire.Codec.limits -> string -> pos:int -> len:int -> message;
      (** Decode the message in the [len] bytes at [pos], in place
          (the codec's [decoder_sub]), under explicit resource limits
          (see {!Wire.Codec.limits}): the server side decodes untrusted
          frames where they lie in the channel's read buffer. The
          result, or the {!Protocol_error} text, depends only on the
          range's bytes. *)
  decode_message : string -> message;
      (** [decode_sub Wire.Codec.default_limits] over the whole
          string. *)
}

val generic : name:string -> ?version:int -> framing:framing -> Wire.Codec.t -> t
(** Build a protocol with the standard envelope over any codec: messages
    are encoded as [octet tag, ulong request-id, ...header fields...,
    string payload]. The payload is embedded as a counted string — the
    CDR-encapsulation trick — so its internal alignment is relative to its
    own start regardless of header size. Requests, replies and locate
    replies end with the trailer when they carry an entry. *)

val text : t
(** The HeidiRMI protocol: {!Wire.Text_codec} over {!Line} framing.
    Requests are single ASCII lines, so a human can telnet to the
    bootstrap port and type one in (Section 4.2). *)

val hcx : t
(** HCX ("heidi-compact"): {!Wire.Hcx_codec} over {!Varint_prefixed}
    framing — the compact binary protocol. Usually reached
    via codec negotiation ([Orb.create ~codecs:[Protocol.hcx]]) rather
    than configured as the base protocol, so mixed-version peers
    converge without manual configuration. *)

val hcx_magic : char
(** The {!Varint_prefixed} frame magic of {!hcx} (0xC8 — outside both
    printable ASCII and ["GIOP"], so a protocol mix-up fails at the
    first frame). *)

(** Codec-negotiation token grammar: an offer or answer holds
    comma-separated [name/version] tokens in the sender's preference
    order, e.g. ["hcx/1,giop-be/1"]. *)
module Nego : sig
  val token : t -> string
  (** [name/version] of one protocol. *)

  val offer_of : t list -> string
  (** The offer for a preference-ordered supported set. *)

  val parse_token : string -> (string * int) option
  (** [Some (name, version)], or [None] on syntax errors. The version is
      ASCII decimal digits, at most 9 of them. *)

  val choose :
    offer:string ->
    supported:t list ->
    compatible:(name:string -> offered:int -> local:int -> bool) ->
    (t * string) option
  (** Server-side choice: the first token of [offer] (client preference
      order) naming a protocol in [supported] whose version pair passes
      [compatible]. Returns the chosen protocol and the answer token to
      send back. [None] means no mutually-compatible codec: stay on the
      base protocol. *)

  val exact : name:string -> offered:int -> local:int -> bool
  (** Default compatibility predicate: exact version equality. The
      IDL-evolution verdict (analysis layer, V301-V304) can replace it
      via [Orb.create ?codec_compat], making wire-breaking-ness a
      runtime property of negotiation. *)
end

exception Protocol_error of string
(** Raised by [decode_message] on malformed messages. *)

val request_id_hint : t -> string -> pos:int -> len:int -> int option
(** Best-effort request id of a frame (the [len] bytes at [pos]) that
    failed to decode: the tag and request id lead every envelope, so
    they often survive damage further into the frame. [Some id] when the frame starts like a
    request or locate-request; [None] otherwise. Never raises — used to
    address error replies for malformed frames. *)
