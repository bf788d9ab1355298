(** Smart proxies: client-side result caching in the stub layer.

    Section 5 surveys Orbix's "smart proxies that can cache object state"
    and Visibroker's "smart stubs" as fixed customization hooks. This
    module is the runtime support a generated (or hand-written) smart
    stub needs: a per-proxy memo of reply payloads keyed by
    (operation, argument payload), with explicit and operation-triggered
    invalidation.

    The cache works at the payload level, beneath argument/result types,
    so one implementation serves every interface. Typical use (see
    [test_smart.ml] and bench §E7): wrap an attribute getter so repeated
    reads cost no remote call, and list the corresponding setter in
    [invalidate_on] so writes flush the cached state.

    A payload rides in the codec of the frame that carries it, so after
    a negotiated codec switch the same call travels in another codec
    than before it. The memo key therefore encodes the arguments in one
    fixed codec, and each cached reply keeps the codec it arrived in:
    a result cached from the base-protocol offering call still decodes
    right after the switch.

    Construct through {!Orb.smart_proxy}, which binds the ORB's invoker
    and base protocol codec. *)

type t

type invoker =
  Objref.t ->
  op:string ->
  Wire.Codec.t * string ->
  (Wire.Codec.encoder -> unit) ->
  Wire.Codec.t * string
(** [invoker target ~op (codec, args) marshal]: one two-way call whose
    arguments [marshal] writes; [args] is their encoding in [codec],
    which the invoker may send as is when its connection speaks
    [codec]. Returns the reply payload with the codec it is encoded
    in. Raises the ORB's exceptions on failure. *)

val create :
  ?capacity:int ->
  ?invalidate_on:string list ->
  codec:Wire.Codec.t ->
  invoker ->
  Objref.t ->
  t
(** [codec] encodes the memo keys. [capacity] bounds the memo (default
    64, oldest evicted first). Operations listed in [invalidate_on]
    flush the whole memo before being invoked and are never cached
    themselves. *)

val call : t -> op:string -> (Wire.Codec.encoder -> unit) -> Wire.Codec.decoder
(** Like a two-way [Orb.invoke], but repeated calls with identical
    operation and arguments are served from the memo without touching
    the network. Exceptions from the underlying invoker pass through
    (and are never cached). *)

val invalidate : t -> unit
(** Flush the memo. *)

val hits : t -> int
val misses : t -> int
val target : t -> Objref.t
