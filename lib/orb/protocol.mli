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
          fixed header's ~14. Large bodies are sent as header + body
          slices through the transport's [writev] with no coalescing
          copy. *)

type request = {
  req_id : int;
  target : Objref.t;
  operation : string;
  oneway : bool;
  payload : string;  (** Codec-encoded arguments. *)
  trace_ctx : string;
      (** Service-context slot, carrying the trace context of the
          observability layer (see [Obs.Trace]). Encoded after the
          payload and omitted when empty, so peers that predate the slot
          interoperate in both directions: they ignore it as trailing
          bytes on receive, and its absence decodes as [""]. *)
  budget_us : int option;
      (** Deadline-budget slot: the caller's remaining call budget in
          microseconds, {e relative} (no clock synchronization assumed
          between peers — the receiver anchors it to its own receive
          time). Encoded after the service-context slot and omitted when
          [None]; a present budget forces the context slot to be written
          even when empty, keeping the slots positional. Same interop
          contract as the context slot: pre-slot peers skip a present
          budget as trailing bytes, and its absence decodes as [None].
          Decoding rejects negative, overflowing, or non-numeric slots
          with {!Protocol_error} — a recoverable malformed-frame error,
          never a crash. An {e empty} budget slot decodes as [None]: it
          is written only when the negotiation-offer slot forces this
          position (peers that predate negotiation reject it,
          recoverably — see [nego_offer]). *)
  nego_offer : string;
      (** Codec-negotiation offer slot (see {!Nego} for the token
          grammar), carried by the first request on a connection.
          Encoded after the deadline-budget slot and omitted when empty,
          so no-offer messages stay byte-identical to the
          pre-negotiation encoding; a present offer forces both earlier
          slots (an absent budget is then the empty string). Peers with
          a budget but no notion of negotiation skip a present offer as
          trailing bytes; peers receiving the empty forced budget slot
          answer with a recoverable malformed-frame error reply, which
          the client's negotiation layer converts into fallback +
          re-send (DESIGN.md, "Wire protocols"). Decoding bounds the
          slot to 256 bytes of token charset, rejecting hostile slots
          with {!Protocol_error}. *)
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
      (** Codec-negotiation answer slot: the server's chosen codec token
          (see {!Nego}), carried by the reply to an offering request.
          Trailing and omitted when empty — same interop contract as
          the request's slots. Only clients that offered ever receive
          one. *)
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
          now". Encoded after the historical fields and omitted when
          [None], so peers that predate the slot interoperate in both
          directions: they ignore a present slot as trailing bytes, and
          its absence decodes as no-forward. *)
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
  encode_message : message -> string;
  decode_message : string -> message;
      (** Equivalent to [decode_limited Wire.Codec.default_limits]. *)
  decode_limited : Wire.Codec.limits -> string -> message;
      (** Decode under explicit resource limits (see
          {!Wire.Codec.limits}) — the server side decodes untrusted
          frames through this. *)
}

val generic : name:string -> ?version:int -> framing:framing -> Wire.Codec.t -> t
(** Build a protocol with the standard envelope over any codec: messages
    are encoded as [octet tag, ulong request-id, ...header fields...,
    string payload]. The payload is embedded as a counted string — the
    CDR-encapsulation trick — so its internal alignment is relative to its
    own start regardless of header size. Requests append the
    service-context slot (the trace context) and the deadline-budget
    slot after the payload when present; decoding tolerates the absence
    of either. *)

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

(** Codec-negotiation token grammar: an offer or answer slot holds
    comma-separated [name/version] tokens in the sender's preference
    order, e.g. ["hcx/1,giop-be/1"]. *)
module Nego : sig
  val token : t -> string
  (** [name/version] of one protocol. *)

  val offer_of : t list -> string
  (** The offer slot for a preference-ordered supported set. *)

  val parse_token : string -> (string * int) option
  (** [Some (name, version)], or [None] on syntax errors. *)

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

val request_id_hint : t -> string -> int option
(** Best-effort request id of a frame that failed to decode: the tag
    and request id lead every envelope, so they often survive damage
    further into the frame. [Some id] when the frame starts like a
    request or locate-request; [None] otherwise. Never raises — used to
    address error replies for malformed frames. *)
