(** The ObjectCommunicator (paper Figs. 4–5): wraps a byte channel and
    demarcates individual protocol messages on it, applying the
    protocol's framing. *)

type t

val wrap : ?limits:Wire.Codec.limits -> Protocol.t -> Transport.channel -> t
(** Wrap an accepted or connected channel. [limits] (default
    {!Wire.Codec.default_limits}) bounds what {!recv}/{!recv_opt} will
    decode: each line read is bounded by the receive protocol's framing
    (the frame limit for line framing, a short header for
    length-prefixed framing), and payload decoding runs through the
    protocol's [decode_limited]. *)

val send : ?proto:Protocol.t -> t -> Protocol.message -> unit
(** Encode, frame and write one message in [proto] (default: the
    current send-side protocol). A caller that marshalled the payload
    in some protocol passes it here, so the envelope goes out in the
    same one.
    @raise Transport.Transport_error on I/O failure. *)

val recv : t -> Protocol.message
(** Read and decode the next message.
    @raise Transport.Transport_error on EOF / I/O failure.
    @raise Protocol.Protocol_error on malformed messages. *)

type recv_error = {
  reason : string;
  req_id_hint : int option;
      (** Best-effort id of the damaged request ({!Protocol.request_id_hint}),
          so the error reply can carry the id the client waits on. *)
}

val recv_opt : t -> (Protocol.message, recv_error) result
(** Like {!recv}, but separates recoverable malformation from fatal
    stream damage: [Error] means the offending frame was fully consumed
    and the byte stream is still synchronized — the server can answer
    with a protocol-level error reply and keep serving the connection
    (oversized frames are discarded in bounded chunks). Exceptions
    ({!Transport.Transport_error}, {!Protocol.Protocol_error} on a
    damaged frame {e header}) mean the stream state is unknown and the
    connection should be closed. *)

val close : t -> unit
(** Close the underlying channel; marks the communicator closed first,
    so it never again counts as live even if the close itself fails. *)

val is_closed : t -> bool
(** Whether {!close} has been called on this communicator. Used by the
    ORB's [server_connections] gauge to exclude connections that are
    closed but not yet reaped by their serving thread. *)

val peer : t -> string

val protocol : ?dir:[ `Send | `Recv ] -> t -> Protocol.t
(** The current protocol of one side of the stream (default [`Send];
    the two agree except inside a negotiated codec switch). Read
    [`Recv] after a receive, before re-pointing that side, to learn the
    protocol the frame just received was decoded with. *)

val set_protocol : ?dir:[ `Both | `Send | `Recv ] -> t -> Protocol.t -> unit
(** Re-point the communicator at another protocol — the mechanism of a
    negotiated codec switch. A switch takes effect at different frame
    boundaries in each direction (the offering request's reply is still
    sent in the old encoding while the next incoming request is already
    read in the new one), so [dir] (default [`Both]) selects which side
    of the stream moves. Callers must guarantee no frame of the old
    encoding is still in flight in the re-pointed direction — the
    negotiation layer's hold-until-answer discipline does. *)
