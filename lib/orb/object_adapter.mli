(** The object adapter: the per-address-space registry mapping object
    identifiers to skeletons (paper Fig. 5 — the oid and type information
    in the [Call] header "permit the selection of the appropriate
    Skeleton").

    Also implements the skeleton cache of Section 3.1: "The skeleton for
    a particular object is only created when a reference to it is being
    passed"; repeated exports of the same servant (identified by a caller
    supplied key) reuse the existing registration.

    Thread- and domain-safe with no lock: the tables are one immutable
    value behind an [Atomic.t], so {!lookup} and {!forward}, read on
    every request, are one atomic load each; a registration publishes
    a new version by compare-and-set. *)

type t

val create : unit -> t

val register : t -> Skeleton.t -> string
(** Register a skeleton under a fresh numeric oid; returns the oid.
    Numbers taken by {!register_named} are skipped, so an automatic oid
    never replaces a named servant. *)

val register_named : t -> oid:string -> Skeleton.t -> unit
(** Register under a caller-chosen oid (e.g. ["bootstrap"]).
    @raise Invalid_argument if the oid is taken or contains ['#']. *)

val register_cached : t -> key:int -> (unit -> Skeleton.t) -> string
(** Lazy, cached registration keyed by a servant identity: the skeleton
    is only built on the first call for a given [key]; later calls return
    the same oid. [key] is typically the servant's unique id.

    One skeleton is installed per key, but two racing first calls for
    a key may each build one: the call that publishes second throws its
    build away and returns the winner's oid. *)

val cache_hits : t -> int
(** Number of [register_cached] calls served from the cache (bench §E6). *)

val lookup : t -> string -> Skeleton.t option
val unregister : t -> string -> unit
val count : t -> int

val set_forward : t -> oid:string -> Objref.t -> unit
(** Register a GIOP-style location forward: requests and locates naming
    [oid] are answered with a redirect to [target] instead of being
    dispatched (even while a local skeleton is still registered — a
    migrated object keeps forwarding until unregistered). *)

val clear_forward : t -> oid:string -> unit
val forward : t -> string -> Objref.t option
