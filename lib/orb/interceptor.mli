(** Request/reply interceptors: the "filters ... triggered in the
    dispatch path" of Orbix and the "interceptors" of Visibroker that the
    paper surveys in Section 5 as the {e expose-a-hook} school of ORB
    customization (versus its own template approach).

    An interceptor sees every request and reply crossing its side of the
    ORB. Client-side interceptors wrap outgoing invocations; server-side
    interceptors wrap the dispatch path. Both may rewrite messages or
    abort a call by raising {!Reject}. Interceptors run in registration
    order on requests and in reverse order on replies (onion layering). *)

exception Reject of string
(** Abort the intercepted call; the initiator sees a system exception
    carrying the message. *)

type t = {
  name : string;
  on_request : Protocol.request -> Protocol.request;
      (** May rewrite the request (e.g. stamp a context token into the
          payload is not possible — payloads are opaque — but operation,
          target and oneway flag are fair game) or raise {!Reject}. On
          the client side the payload is still empty here: it is
          marshalled later, in the codec of the connection the call is
          admitted to. *)
  on_reply : Protocol.request -> Protocol.reply -> Protocol.reply;
      (** Observes/rewrites the reply paired with its request. *)
  on_error : Protocol.request -> exn -> unit;
      (** Observes invocation failures that produced no reply: transport
          errors (each failed attempt, including ones about to be
          retried), deadline timeouts, and circuit-breaker fast-fails.
          Observation only — it cannot suppress the exception. *)
}

val make :
  ?on_request:(Protocol.request -> Protocol.request) ->
  ?on_reply:(Protocol.request -> Protocol.reply -> Protocol.reply) ->
  ?on_error:(Protocol.request -> exn -> unit) ->
  string ->
  t
(** Identity behaviour for omitted hooks. *)

(** A chain of interceptors. *)
type chain

val empty_chain : unit -> chain
val add : chain -> t -> unit
val names : chain -> string list

val apply_request : chain -> Protocol.request -> Protocol.request
(** Registration order. @raise Reject if any interceptor rejects. *)

val apply_reply : chain -> Protocol.request -> Protocol.reply -> Protocol.reply
(** Reverse registration order. *)

val apply_error : chain -> Protocol.request -> exn -> unit
(** Registration order; exceptions from hooks propagate. *)

(** {2 Stock interceptors} *)

val logger : (string -> unit) -> t
(** Logs one line per request and reply. *)

val call_counter : unit -> t * (unit -> int)
(** Counts requests; returns the interceptor and a reader. *)

val failure_counter : unit -> t * (unit -> int)
(** Counts invocation failures seen by [on_error]; returns the
    interceptor and a reader. *)

val deny : (op:string -> type_id:string -> bool) -> reason:string -> t
(** Rejects requests for which the predicate returns true — a minimal
    authorization filter. *)
