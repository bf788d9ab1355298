(** The ORB facade: one value of type {!t} is one HeidiRMI address space.

    Configurable along the three axes the paper argues for (Section 2):
    the {e wire protocol} (a {!Protocol.t}: text or GIOP-like binary),
    the {e transport} (["tcp"] or the in-process ["mem"] loopback), and
    the skeletons' {e dispatch strategy} (chosen per skeleton: the
    [?strategy] of {!Skeleton.create} and of generated skeletons).

    Server side: {!start} binds the bootstrap port and spawns one thread
    per accepted connection (Fig. 5). Client side: {!invoke} implements
    Fig. 4 — it builds a [Call], takes a cached connection, marshals via
    the caller's closure in that connection's codec, sends the request,
    and returns a decoder positioned at the reply payload. *)

(** {1 Submodules} *)

module Objref : module type of Objref
module Dispatch : module type of Dispatch
module Protocol : module type of Protocol
module Transport : module type of Transport
module Communicator : module type of Communicator
module Skeleton : module type of Skeleton
module Object_adapter : module type of Object_adapter
module Serial : module type of Serial
module Interceptor : module type of Interceptor
module Smart : module type of Smart
module Retry : module type of Retry
module Breaker : module type of Breaker
module Pool : module type of Pool

(** The connection state machines, as decisions with no lock and no I/O
    (DESIGN.md §8, §9, §13); the ORB is the shell that takes the lock,
    calls one of them, then waits, broadcasts or sends. *)

module Mux : module type of Mux
module Nego : module type of Nego
module Admit : module type of Admit

(** The observability layer (library [Obs]) plus the one piece that
    needs ORB types: a stock metrics-feeding interceptor. See
    DESIGN.md "Observability". *)
module Obs : sig
  include module type of struct
    include Obs
  end

  val interceptor : t -> Interceptor.t
  (** A stock interceptor feeding the event counters of [t]: per
      operation, [req:<op>] on every request, one of [ok:]/[uexn:]/
      [serr:] per reply status, and [err:<op>] on invocation failures
      that produced no reply. Add it to either side's chain; it
      composes with user interceptors. *)
end


type t

exception Remote_exception of {
  repo_id : string;  (** Repository ID of the raised IDL exception. *)
  payload : string;  (** Encoded exception members. *)
  codec : Wire.Codec.t;
      (** Codec to decode [payload] with: the codec of the frame the
          reply came in, the same one the request was sent in. The base
          protocol's on the offering call of a negotiating connection
          and on a connection that fell back; the negotiated codec on
          every later call. *)
}
(** A declared (IDL) exception raised by the remote implementation. *)

exception System_exception of string
(** Infrastructure failure reported by the peer (unknown object, unknown
    operation, marshal error in the skeleton, ...). *)

(** The server's overload policy: how much concurrent work, queued work
    and connection state one address space will hold, and what happens
    at each bound. A policy {e value}, not code — swap it at {!create}
    without touching dispatch (DESIGN.md "Server model and overload
    policy"). *)
type server_policy = {
  pool : Pool.config option;
      (** [Some cfg]: requests decoded by connection reader threads are
          executed by a bounded worker pool under [cfg]'s admission
          policy (the default). [None]: unbounded thread-per-connection
          inline dispatch — the paper's Fig. 5 model, kept for the
          overload comparison (bench §E10). *)
  max_connections : int;
      (** Accepted-connection bound; past it the idle-longest connection
          is evicted (idle-LRU). [0] = unlimited (default). *)
  max_pipelined : int;
      (** Per-connection in-flight request cap; further pipelined
          requests are rejected with a system exception until replies
          drain. [0] = unlimited. *)
  limits : Wire.Codec.limits;
      (** Decode budget for inbound frames: frame size, string size,
          sequence length, nesting depth (see {!Wire.Codec.limits}).
          Violations are answered with a system-exception reply when the
          stream can be resynchronized, else the connection closes. *)
}

val default_server_policy : server_policy
(** [Pool.default_config]'s pool (one worker domain per core, 2 to 8),
    unlimited connections, 64 pipelined requests per connection,
    {!Wire.Codec.default_limits}. The accept loop retries a transient
    accept failure (e.g. fd exhaustion) after 10 ms, doubling per
    consecutive failure up to 1 s. *)

(** The client's connection-sharing policy (DESIGN.md "Client connection
    model"). Each cached outbound connection runs a reply demultiplexer:
    a dedicated reader thread correlates replies to blocked callers by
    request id, so up to [max_in_flight] two-way calls from concurrent
    threads pipeline over one shared connection. [max_in_flight = 1]
    lets one two-way call in flight at a time (the bench §E11 baseline);
    a limit below 1 counts as 1. *)
type mux = { max_in_flight : int }

val default_mux : mux
(** [{ max_in_flight = 32 }] — half the default server policy's
    per-connection pipelining cap, so a default client never trips a
    default server. *)

val create :
  ?protocol:Protocol.t ->
  ?codecs:Protocol.t list ->
  ?codec_compat:(name:string -> offered:int -> local:int -> bool) ->
  ?transport:string ->
  ?host:string ->
  ?port:int ->
  ?call_timeout:float ->
  ?propagate_deadlines:bool ->
  ?retry:Retry.policy ->
  ?retry_budget:Retry.Budget.config ->
  ?breaker:Breaker.config ->
  ?obs:Obs.t ->
  ?server_policy:server_policy ->
  ?mux:mux ->
  unit ->
  t
(** Defaults: the text protocol, the ["mem"] transport
    on a fresh port. For TCP use [~transport:"tcp" ~host:"127.0.0.1"]
    (with [port = 0] picking a free port at {!start}).

    [codecs] — wire-level codec negotiation (empty and off by default).
    A non-empty, preference-ordered list (e.g. [[Protocol.hcx]]) makes
    this ORB negotiate per connection: as a client it attaches its
    supported set to the first two-way request on each connection (an
    entry in the envelope's trailer, see {!Protocol}); as a server it answers an offer with the first
    mutually-compatible codec and both sides switch the connection's
    encoding. Peers that predate negotiation, or share no compatible
    codec, converge on the base [protocol] — mixed-version pairs need
    no manual configuration. Outcomes are counted in {!stats}
    ([codec_negotiations] / [codec_fallbacks]).

    [codec_compat] — the version-compatibility predicate used when an
    offered codec's version differs from the local one (default
    {!Protocol.Nego.exact}: equality). Wire in the IDL-evolution
    verdict of the analysis layer to make wire-compatibility (V301–
    V304) a runtime property of negotiation.

    [obs] — attach an observability context (see {!Obs}): every
    {!invoke} then opens a client span with per-phase timings, every
    dispatch opens a server span joined to the caller's trace via the
    trace context in the envelope's trailer, and the transport feeds
    per-endpoint byte counters. Omitted: a disabled context — no spans,
    no measurable overhead, and no trace context on the wire. Either way the ORB's
    event counters (see {!stats}) count into this context.

    Fault-tolerance knobs (see DESIGN.md "Failure model"):
    - [call_timeout] — default per-call deadline in seconds; a call whose
      reply does not arrive in time raises {!Transport.Timeout}. No
      deadline by default.
    - [propagate_deadlines] (default [true]) — stamp each outgoing
      request's remaining call-deadline budget into the envelope's
      trailer (microseconds, relative), re-read at every retry
      and failover so the wire always carries what is actually left.
      A receiving ORB sheds work whose budget has lapsed — at decode,
      at pool admission, and again just before execution — instead of
      computing replies no caller is waiting for. [false] sends no
      budget; calls without a deadline never send one either way.
    - [retry] — the {!Retry.policy} for transient connection failures
      (default {!Retry.default}: 3 attempts with exponential backoff).
      After every failed attempt {!Retry.decide} alone says whether
      another follows. Only a failure whose request provably did not
      execute is re-sent: a failed connect or send, a receive failure on
      a reused connection, or a refusal a server sends for requests it
      never executed ({!Pool.never_executed}: draining, or cancelled in
      a stopping pool's queue). A dispatched request is never
      duplicated, and a retry whose backoff would reach the call's
      deadline is not taken: the call fails at once with its error.
    - [retry_budget] — config for the client-wide {!Retry.Budget}
      (default {!Retry.Budget.default_config}). Every retry and
      failover first withdraws a credit; successes deposit [ratio] of
      one back. An empty bucket fails the call with
      {!Retry.Budget_exhausted} ([Permanent] — never retried), visible
      in {!stats} as [retry_budget_exhaustions], so correlated failures
      cannot amplify into a synchronized retry storm.
    - [breaker] — enable a per-endpoint circuit {!Breaker} with this
      config; repeated connection failures then fast-fail with
      {!Breaker.Circuit_open} until a half-open [Locate_request] probe
      succeeds. Disabled by default.

    [server_policy] — the overload policy (see {!server_policy});
    defaults to {!default_server_policy}: a bounded worker pool with
    reject admission and default decode limits.

    [mux] — the client connection-sharing policy (see {!mux}); defaults
    to {!default_mux} (multiplexed, 32 calls in flight per connection). *)

val start : t -> unit
(** Bind the bootstrap port and start accepting connections (creating
    the worker pool when the policy asks for one). Idempotent. *)

val shutdown : ?drain_deadline:float -> t -> unit
(** Stop the server. Phase 1 always: close the listener and flip the
    ORB into draining, so connections still open answer new requests
    with {!Pool.refused_draining} system exceptions, which clients
    retry or fail over under their retry policy. With [drain_deadline]
    (seconds), phase 2 waits up to that long for every request already
    admitted to be answered — {!Admit}'s server-wide count, the same
    with or without a pool: queued, executing, or parked in a [Block]
    admission wait — before phase 3 stops the pool and force-closes
    every connection; the outcome lands in {!stats} ([drains_clean] /
    [drain_aborted_jobs]) and, when tracing, in an ["orb.drain"] server
    span. Without it, shutdown is immediate. Idempotent; a stopped ORB
    may be started again. *)

val protocol : t -> Protocol.t

val port : t -> int
(** Bound port (after {!start}). *)

val adapter : t -> Object_adapter.t

val obs : t -> Obs.t
(** The ORB's observability context (a disabled one when [create] was
    not given [~obs]). [Obs.snapshot] on it reads the metrics, including
    the always-on event counters behind {!stats}; [Obs.add_sink]
    attaches span consumers. *)

val client_interceptors : t -> Interceptor.chain
(** The chain applied around every outgoing {!invoke}. Client-side
    {!Interceptor.Reject} propagates to the caller. The chain sees the
    request before its payload is marshalled (the codec is not known
    until a connection admits the call), so with an empty payload;
    replies carry their payload as received. *)

val server_interceptors : t -> Interceptor.chain
(** The chain applied around the dispatch path (Section 5's Orbix-style
    filters). A server-side reject is reported to the peer as a system
    exception. *)

(** {2 Server side} *)

val export : t -> Skeleton.t -> Objref.t
(** Register a skeleton under a fresh oid and return its reference. *)

val export_named : t -> oid:string -> Skeleton.t -> Objref.t
(** Register under a well-known oid (e.g. ["bootstrap"]). *)

val export_cached : t -> key:int -> type_id:string -> (unit -> Skeleton.t) -> Objref.t
(** Lazy cached export by servant identity (Section 3.1: skeletons are
    created only when a reference is first passed, then cached). *)

(** {2 Client side} *)

val invoke :
  t ->
  Objref.t ->
  op:string ->
  ?oneway:bool ->
  ?timeout:float ->
  (Wire.Codec.encoder -> unit) ->
  Wire.Codec.decoder option
(** [invoke orb target ~op marshal] performs a remote call. Returns
    [Some decoder] positioned at the reply payload, or [None] for oneway
    calls. [timeout] (seconds) overrides the ORB's [call_timeout] for
    this call. The deadline is fixed once, when the call starts: every
    attempt, failover, probe and forward fallback of the call shares it.

    A payload rides in the codec of the frame that carries it. [marshal]
    runs once the call holds an in-flight slot on its connection, outside
    every lock, in the codec of the protocol that connection sends in:
    the base protocol on the offering request of a negotiating
    connection and on a connection that fell back, the negotiated codec
    after the switch. A retry or failover onto a connection with the
    same codec reuses the bytes, so [marshal] runs at most once per
    codec per call; it must not depend on being run once. The decoder
    reads the reply in the codec the request was sent in.

    A multi-endpoint [target] (see {!Objref.make_multi}) is one logical
    object behind several replicas: each call picks a replica by
    power-of-two-choices over the per-endpoint in-flight counts,
    skipping breaker-open endpoints, and fails over to another replica
    on the failures {!Retry.decide} lets it re-send, under the same
    [max_attempts]. The wire
    envelope always carries the chosen endpoint's single-endpoint view,
    so pre-replication peers interoperate unchanged. A server may answer
    with a GIOP-style location forward; the client follows it
    transparently and caches the redirect per logical target. When the
    forwarded placement fails with a request that provably did not
    execute ({!Retry.resend_safe}), the call falls back to the logical
    target within the same deadline.
    @raise Remote_exception for declared IDL exceptions.
    @raise System_exception for infrastructure failures.
    @raise Transport.Transport_error when the peer is unreachable (after
    the retry policy is exhausted).
    @raise Transport.Timeout when the deadline passes first.
    @raise Breaker.Circuit_open when the endpoint's circuit is tripped. *)

val locate : t -> ?timeout:float -> Objref.t -> bool
(** GIOP-style LocateRequest (the message real IIOP uses before or
    instead of dispatching): asks the target's address space whether the
    oid is currently exported, without invoking anything.
    @raise Transport.Transport_error when the peer is unreachable. *)

val smart_proxy :
  t -> ?capacity:int -> ?invalidate_on:string list -> Objref.t -> Smart.t
(** A client-side caching proxy for [target] (see {!Smart}). Its calls
    go through {!invoke}'s path, so their payloads ride in the codec of
    the frame that carries them like any call's; the memo keys encode
    the arguments in this ORB's base protocol codec, and each cached
    reply keeps the codec it arrived in. *)

val connections_opened : t -> int
(** Total outbound connections ever opened — with the connection cache
    working, repeated calls to one peer keep this at 1 (bench §E6). *)

val requests_served : t -> int
(** Total requests this address space has dispatched. *)

(** Observability counters for one ORB (address space). *)
type stats = {
  opened : int;  (** Outbound connections ever opened. *)
  served : int;  (** Requests dispatched by this address space. *)
  retries : int;
      (** Re-sends {!Retry.decide} granted: attempts beyond the first
          within one placement, failovers included. A breaker gate's
          re-pick, a forward fallback and a naming re-send are not
          counted. *)
  timeouts : int;  (** Calls that hit their deadline. *)
  failovers : int;
      (** Attempts rerouted away from a failed or breaker-open replica
          of a multi-endpoint target. *)
  forwards : int;  (** [Locate_forward] redirects honoured. *)
  breaker_trips : int;
      (** Circuit transitions to [Open]: the event
          ["client:breaker_trips"] (0 if disabled). *)
  breaker_fast_fails : int;
      (** Calls rejected without touching the network: the event
          ["client:breaker_fast_fails"] (0 if disabled). *)
  breaker_states : (string * string) list;
      (** Per-endpoint circuit state, [(endpoint-key, "closed" | "open"
          | "half-open")], sorted by endpoint — the post-hoc view of why
          selection skipped a replica. Empty without a breaker. *)
  server_connections : int;
      (** Currently live accepted server-side connections. Closed
          communicators still awaiting reaping by their serving thread
          are excluded. *)
  rejected : int;
      (** Requests refused by admission control (overload, draining, or
          the pipelining cap) — each one answered with a system
          exception, none silently dropped. *)
  expired_pre_admission : int;
      (** Requests shed before entering the pool queue: their deadline
          budget had already lapsed at decode time, or lapsed while the
          reader was blocked awaiting queue space. Answered with an
          ["expired before admission"] system exception. *)
  expired_in_queue : int;
      (** Requests admitted to the queue but shed at worker pickup — the
          servant never ran (the zombie-work kill). Two flavours, both
          counted here: the budget had already lapsed (["expired in
          queue"]), or the remaining budget was below the pool's learned
          service-time estimate, so execution was guaranteed to finish
          past the deadline (["doomed in queue"]). *)
  retry_budget_balance : int;
      (** Whole retry credits currently banked in the client-wide
          {!Retry.Budget}. *)
  retry_budget_exhaustions : int;
      (** Retries/failovers refused by the budget — each one failed the
          call with {!Retry.Budget_exhausted}: the event
          ["client:retry_budget_exhausted"]. *)
  evicted : int;  (** Connections evicted by the idle-LRU limit. *)
  drains_clean : int;  (** Graceful drains that finished in time. *)
  drain_aborted_jobs : int;
      (** Admitted requests still unanswered when a drain deadline
          passed, in either server mode. *)
  pool_depth : int;  (** Requests queued in the pool right now (0 without a pool). *)
  pool_active : int;  (** Pool workers currently executing (0 without a pool). *)
  mux_in_flight : int;
      (** Client calls currently awaiting replies, summed over cached
          connections. *)
  mux_peak_in_flight : int;
      (** Highest in-flight count any single client connection reached —
          [> 1] is the proof that calls actually pipelined. *)
  codec_negotiations : int;
      (** Connections switched to a negotiated codec, counted in both
          roles: as the offering client (the answer arrived and both
          directions re-pointed) and as the answering server. *)
  codec_fallbacks : int;
      (** Offers that ended on the base protocol instead: the peer
          answered nothing (it predates negotiation, or found no
          compatible codec), or this server found no compatible codec
          in an offer it received. *)
}

val stats : t -> stats
(** A typed view over one snapshot of the ORB's {!obs} registry. The
    event counts ([opened], [served], [retries], [rejected], ...) are
    its named counters — ["client:connections_opened"],
    ["server:served"], ... — which the ORB bumps whether or not tracing
    is enabled; a field that counts one event in two roles is the sum
    of both ([codec_negotiations] = ["client:codec_negotiated"] +
    ["server:codec_negotiated"]; [expired_in_queue] =
    ["server:expired_in_queue"] + ["server:doomed_in_queue"]). Every
    count is such an event; [Breaker], [Pool] and [Retry.Budget] count
    nothing. The other fields are gauges read now: live connections,
    mux calls in flight and their high-water mark, breaker states, the
    retry budget's balance, and the pool's depth and active workers. Two ORBs
    sharing one [Obs.t] read summed counters: give each its own. For
    JSON, render {!Obs.snapshot} with [Obs.snapshot_to_json]. *)

val breaker_state : t -> Objref.t -> Breaker.state option
(** Circuit state for the target's primary endpoint; [None] when no
    breaker is configured. *)

(** {2 Location forwarding} *)

val set_forward : t -> oid:string -> Objref.t -> unit
(** Register a GIOP-style location forward on the {e server}: requests
    and locates naming [oid] on this ORB are answered with a redirect to
    the given reference instead of being dispatched. Clients follow the
    redirect transparently (up to 4 hops), cache it per logical target,
    and invalidate the cache when the forwarded placement fails. *)

val clear_forward : t -> oid:string -> unit

val servant_key : unit -> int
(** A process-unique servant identity, for {!export_cached} and stub
    caches. *)

(** The bootstrap object: a tiny naming service behind the well-known
    oid ["bootstrap"] (Section 3.1: "The bootstrap port in each address
    space serves as means to initiate a communication channel"). A
    client that knows only a server's endpoint can resolve its way in:

    {[
      (* server *)                          (* client *)
      let _ = Bootstrap.serve orb in        let boot = Bootstrap.reference
      Bootstrap.bind orb ~name:"mixer" r;     ~proto:"tcp" ~host ~port in
                                            Bootstrap.resolve client boot ~name:"mixer"
    ]}

    The wire interface is an ordinary skeleton, callable from any
    mapping: [bind(name, obj)], [resolve(name)], [unbind(name)],
    [list()]. *)
module Bootstrap : sig
  val type_id : string
  val oid : string

  val serve : t -> Objref.t
  (** Export the bootstrap skeleton under the well-known oid.
      @raise Invalid_argument if this ORB already serves one. *)

  val reference : proto:string -> host:string -> port:int -> Objref.t
  (** The bootstrap reference of a remote address space, from its
      endpoint alone. *)

  val bind : t -> name:string -> Objref.t -> unit
  (** Bind (or rebind) in the local registry; requires {!serve} first.
      @raise Invalid_argument before {!serve}. *)

  val resolve : t -> Objref.t -> name:string -> Objref.t
  (** Remote resolve via a bootstrap reference.
      @raise System_exception when unbound. *)

  val unbind : t -> Objref.t -> name:string -> unit
  val list_names : t -> Objref.t -> string list
end

(** The ORB bindings of the lease-based naming service (see {!Naming}
    for the protocol and the invoker-parameterized primitives). [serve]
    exports the servant; the client calls go through this ORB's
    {!invoke}, inheriting its retry, breaker, failover, and timeout
    machinery. *)
module Naming : sig
  include module type of struct
    include Naming
  end

  val serve : ?config:config -> ?oid:string -> t -> registry * Objref.t
  (** Export a naming servant (default oid ["naming"]); returns the
      registry (for in-process registration) and the servant's
      reference. *)

  val invoker : ?timeout:float -> t -> invoker

  val register :
    ?timeout:float -> t -> Objref.t -> name:string -> Objref.t ->
    ttl:float -> float
  (** Register (or renew) a provider of [name] at the naming servant;
      returns the granted TTL in seconds. [ttl <= 0.] requests the
      server's default lease. *)

  val unregister :
    ?timeout:float -> t -> Objref.t -> name:string -> Objref.t -> unit

  val resolve :
    ?timeout:float -> t -> Objref.t -> name:string -> (Objref.t * float) option
  (** The merged multi-endpoint reference over the live replicas of
      [name], with the remaining lease time in seconds. *)

  val list : ?timeout:float -> t -> Objref.t -> string list

  val resolver : ?timeout:float -> t -> Objref.t -> name:string -> resolver
  (** A caching resolve handle bound to this ORB (see {!type-resolver}). *)

  val call :
    t -> resolver -> op:string -> ?oneway:bool -> ?timeout:float ->
    (Wire.Codec.encoder -> unit) ->
    Wire.Codec.decoder option
  (** {!invoke} through a resolver: resolves (from cache while the lease
      lasts) and invokes. When the cached placement fails with a request
      that provably did not execute ({!Retry.resend_safe}: circuit open,
      transient connection failure, never-executed refusal), it drops
      the cached resolve, re-resolves and re-sends exactly once, under
      the deadline the call started with: [timeout] bounds the whole
      call, re-send included. Ambiguous failures (deadline,
      fresh-connection receive errors) propagate without a re-send —
      at-most-once is preserved. The resolves — on a cold or lapsed
      lease, and the re-resolve — run under the same deadline, not the
      resolver's own timeout.
      @raise Unresolved when no provider is live. *)
end
