(** Wire-level and call-level metrics for one ORB: fixed-bucket latency
    histograms (log-spaced 1-2-5 bounds, 1µs–5s plus overflow),
    per-endpoint byte counters, and named event counters. All
    operations are thread-safe and allocation-free on the hot path. *)

type t

val create : unit -> t

val observe : t -> name:string -> float -> unit
(** Record a latency (seconds) into the named histogram, creating it on
    first use. NaN observations are dropped (an untimed phase). *)

val add_bytes : t -> endpoint:string -> dir:[ `In | `Out ] -> int -> unit
(** Account [n] wire bytes to the endpoint's counter, plus one
    read/write operation. *)

val incr : ?by:int -> t -> name:string -> unit
(** Add [by] (default 1) to a named event counter, creating it on first
    use. *)

val set_gauge : t -> name:string -> float -> unit
(** Set a named level gauge (last write wins) — e.g. the server worker
    pool's queue depth. *)

(** {2 Snapshots} *)

type hist_view = {
  name : string;
  total : int;
  sum_s : float;
  max_s : float;
  mean_s : float;  (** NaN when empty. *)
  buckets : (float * int) list;
      (** (upper bound in seconds, count); the final bound is
          [infinity] (overflow). *)
}

type bytes_view = {
  endpoint : string;
  bytes_in : int;
  bytes_out : int;
  reads : int;
  writes : int;
}

type snapshot = {
  latencies : hist_view list;  (** Sorted by name. *)
  endpoints : bytes_view list;  (** Sorted by endpoint. *)
  counters : (string * int) list;  (** Sorted by name. *)
  gauges : (string * float) list;  (** Sorted by name. *)
}

val snapshot : t -> snapshot
(** A consistent copy; the live registry keeps accumulating. *)

val snapshot_to_json : snapshot -> string
(** Render as a JSON object ([latencies] / [endpoints] / [counters]).
    Empty histogram buckets are omitted. *)
