(** Call tracing: one {!span} per invocation side (client and server),
    correlated across address spaces by a trace context propagated in
    the wire protocol's service-context slot.

    The span model is deliberately small — TAO-style per-request
    instrumentation (see PAPERS.md) rather than a full OpenTelemetry:
    a span records who called what where, the four client-side phase
    timings (marshal / send / wait / unmarshal), the retry count and
    breaker state of the fault-tolerance layer, and an outcome. *)

type kind = Client | Server

type outcome =
  | Ok
  | User_exception of string  (** Declared IDL exception (repository id). *)
  | System_error of string  (** Peer-reported infrastructure failure. *)
  | Failed of string  (** Local failure: transport error, timeout, ... *)

type span = {
  trace_id : string;  (** Shared by every span of one logical call. *)
  span_id : string;
  parent_id : string option;  (** The client span's id, on server spans. *)
  kind : kind;
  operation : string;
  endpoint : string;
  started_at : float;
  mutable req_id : int;  (** 0 until the ORB assigns one. *)
  mutable finished_at : float;  (** NaN until {!finish}. *)
  mutable marshal_s : float;
      (** Client phase timings, seconds; NaN = this phase was not timed
          (e.g. server spans, or a call that never marshalled: it failed
          first, or a smart proxy sent the encoding it already held).
          [marshal_s] adds up every encoding the call made: one per
          codec its attempts sent in. *)
  mutable send_s : float;
  mutable wait_s : float;
  mutable unmarshal_s : float;
  mutable retries : int;  (** Attempts beyond the first, this call. *)
  mutable breaker : string option;  (** Circuit state at call entry. *)
  mutable outcome : outcome option;
  mutable notes : (string * string) list;
      (** Key/value annotations, newest first. The ORB adds one
          [("codec", name)] per attempt that sent a request: the payload
          codec it travelled in ([text], [hcx], ...). *)
}

val now : unit -> float
(** The spans' time base ([Unix.gettimeofday], matching the transport's
    deadline clock). *)

(** {2 Wire context}

    The context travels as one opaque string ["<trace-id>-<span-id>"] in
    the protocol's trailer. Decoding is tolerant: peers that predate the
    context send nothing, and malformed contexts are treated as absent —
    propagation must never fail a call. *)

val encode_context : span -> string
val decode_context : string -> (string * string) option
(** [Some (trace_id, parent_span_id)] when well-formed: lowercase hex,
    a trace id of at most 32 digits and a span id of at most 16. *)

val max_context_bytes : int
(** The longest context {!decode_context} accepts (49 bytes). *)

val new_trace_id : unit -> string
val new_span_id : unit -> string

(** {2 Lifecycle} *)

val start_client : operation:string -> endpoint:string -> unit -> span
(** A fresh root span (new trace id). *)

val start_server :
  ?context:string * string -> operation:string -> endpoint:string -> unit -> span
(** A server span joined to [context] (from {!decode_context}) when
    present, else a fresh root. *)

val finish : span -> outcome -> unit
val finished : span -> bool
val duration : span -> float
(** Seconds from start to finish; NaN while unfinished. *)

val note : span -> string -> string -> unit
(** Attach a free-form key/value annotation. *)

val kind_to_string : kind -> string
val outcome_to_string : outcome -> string

val to_json : span -> string
(** One-line JSON object (the JSONL sink format). Untimed phases render
    as [null]. *)
