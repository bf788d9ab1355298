(** Codec negotiation verdicts, with no lock and no I/O (DESIGN.md §13).
    The client's hold-until-answer gate lives in {!Mux}; this module
    judges the answer to the one offer, and keeps the server's
    answer-once state for a connection. *)

type compat = name:string -> offered:int -> local:int -> bool

(** {2 Client: the answer to the offer} *)

type verdict =
  | Chosen of Protocol.t
      (** the peer switched to a codec we have at a version [compat]
          vouches for: re-point both directions, then settle *)
  | Unknown of string
      (** the peer answered this token, which we did not offer or cannot
          follow; its stream has switched, so the connection must die *)
  | Fallback
      (** no answer (a peer that predates the trailer never sees the
          offer, or no common codec): settle; the offering call already
          has its reply, so nothing is re-sent *)

val answer : codecs:Protocol.t list -> compat:compat -> Protocol.message ->
  verdict
(** [answer ~codecs ~compat reply]: the verdict on the reply to the
    offering request. *)

(** {2 Server: one answer per connection} *)

type server = {
  mutable negotiated : bool;  (** an offer was processed *)
  mutable pending : (string * Protocol.t) option;
      (** the answer token awaiting the next reply out, and the protocol
          the send side switches to once it is sent *)
}
(** Guarded by the connection's reply-write lock. *)

type offer =
  | Switch of Protocol.t
      (** switch the receive side now; the answer rides the next reply *)
  | No_common  (** no codec in common: a fallback, answered by silence *)
  | Ignored  (** a oneway, negotiation off, or not the first offer *)

val server : unit -> server

val offer : server -> codecs:Protocol.t list -> compat:compat ->
  Protocol.request -> offer
(** For a request carrying an offer. Only the first offer on a
    connection, carried by a two-way request, is honoured. *)

val take_answer : server -> (string * Protocol.t) option
(** The pending answer, once: call it for each reply sent. *)
