(** Lease-based naming: names bound to {e sets} of provider references
    under TTL leases (DESIGN.md "Replication and naming").

    Each replica registers its own reference with a TTL and must
    re-register before the lease lapses; [resolve] merges the live
    providers into one multi-endpoint {!Objref.t}, so client-side
    failover and load balancing see every replica behind a single
    logical target. A dead replica simply stops renewing.

    The module is ORB-independent: the server half is a skeleton over a
    lease registry; the client half is parameterized over an {!invoker}.
    [Orb.Naming] binds both to a live ORB. *)

val type_id : string  (** ["IDL:Heidi/Naming:1.0"] *)

val default_oid : string  (** ["naming"] — the well-known oid. *)

(** {2 Server half} *)

type config = {
  default_ttl : float;  (** Granted when the caller requests [ttl <= 0]. *)
  max_ttl : float;  (** Requested TTLs are clamped to this. *)
}

val default_config : config
(** 30 s default lease, 1 h cap. *)

type registry
(** The lease table. Thread-safe; expiry is lazy (pruned on touch). *)

val create : ?config:config -> unit -> registry

val skeleton : registry -> Skeleton.t
(** The naming servant: operations [register] (name, provider byref,
    requested-ttl double → granted-ttl double), [unregister] (name,
    provider byref), [resolve] (name → merged byref + remaining-ttl
    double; nil byref + 0 when unbound), [list] (→ name sequence). *)

val grant : registry -> name:string -> Objref.t -> ttl:float -> float
(** Local (in-process) registration or renewal; returns the granted
    TTL in seconds. *)

val revoke : registry -> name:string -> Objref.t -> unit

val lookup : registry -> name:string -> (Objref.t * float) option
(** The merged multi-endpoint reference over the live replicas of
    [name] (providers sharing the first registration's oid and type),
    with seconds until the soonest merged lease lapses. *)

val names : registry -> string list
val grants : registry -> int  (** Registrations + renewals served. *)

val expiries : registry -> int
(** Leases dropped because they lapsed without renewal. *)

(** {2 Client half} *)

type invoker =
  Objref.t -> op:string -> (Wire.Codec.encoder -> unit) ->
  Wire.Codec.decoder option
(** How the client half calls the naming servant — [Orb.invoke]
    partially applied, in practice. *)

exception Unresolved of string
(** A name with no live providers. *)

val register_via :
  invoker -> Objref.t -> name:string -> Objref.t -> ttl:float -> float

val unregister_via : invoker -> Objref.t -> name:string -> Objref.t -> unit

val resolve_via : invoker -> Objref.t -> name:string -> (Objref.t * float) option

val list_via : invoker -> Objref.t -> string list

type resolver
(** A caching resolve handle for one name: remembers the resolved
    endpoint set until its lease lapses, so the naming service is only
    consulted on expiry or {!invalidate}. Thread-safe. *)

val resolver_via : invoker -> Objref.t -> name:string -> resolver

val current : resolver -> Objref.t
(** The cached reference, re-resolving if the lease has lapsed or the
    cache was invalidated. @raise Unresolved when no provider is live. *)

val current_via : invoker -> resolver -> Objref.t
(** {!current}, making any resolve through the given invoker instead of
    the resolver's own. *)

val invalidate : resolver -> unit
(** Drop the cache — the next {!current} re-resolves. Called when every
    replica of the cached set is unreachable. *)

val resolves : resolver -> int
(** Trips made to the naming service (cache misses). *)
