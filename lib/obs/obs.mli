(** Observability for the ORB runtime: call tracing ({!Trace}),
    wire-level metrics ({!Metrics}) and pluggable span export
    ({!Sink}), bundled behind one per-ORB switchable instance.

    The ORB consults {!enabled} at every tracing probe point, so a
    disabled instance costs one boolean load per probe — bench E9
    measures the enabled ("trace-on") overhead against that baseline.
    The ORB's own event counters (connections opened, requests served,
    retries, sheds, negotiations, ...) ignore the switch: it bumps them
    straight into {!metrics}, so they count on a disabled instance too,
    and [Orb.stats] reads them back. Use one instance per ORB, or the
    ORBs sharing it read summed counters. *)

module Jout = Jout
module Trace = Trace
module Metrics = Metrics
module Sink = Sink

type t

val create : ?enabled:bool -> unit -> t
(** A fresh instance; [enabled] defaults to [true]. (The ORB creates a
    disabled one when none is supplied, so tracing is opt-in per address
    space; its event counters still land there.) *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
(** Flip tracing at runtime; connections already open pick the change
    up on their next read/write. *)

val metrics : t -> Metrics.t

val add_sink : t -> Sink.t -> unit
val sink_names : t -> string list

val emit : t -> Trace.span -> unit
(** Deliver a finished span to every sink, registration order. No-op
    when disabled; sink exceptions are swallowed (losing a span beats
    failing a call). *)

val observe : t -> name:string -> float -> unit
(** {!Metrics.observe}, gated on {!enabled}. *)

val add_bytes : t -> endpoint:string -> dir:[ `In | `Out ] -> int -> unit
(** {!Metrics.add_bytes}, gated on {!enabled}. *)

val incr : t -> name:string -> unit
(** {!Metrics.incr}, gated on {!enabled}. *)

val set_gauge : t -> name:string -> float -> unit
(** {!Metrics.set_gauge}, gated on {!enabled}. *)

(** {2 Snapshot} *)

type snapshot = { spans_emitted : int; metrics : Metrics.snapshot }

val snapshot : t -> snapshot
val snapshot_to_json : snapshot -> string
