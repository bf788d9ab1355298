(* The observability facade: one [Obs.t] per ORB bundles an on/off
   switch, a metrics registry and the registered span sinks. The ORB's
   invocation and dispatch paths consult [enabled] before doing any
   tracing work, so a disabled instance costs one boolean load per
   probe point (the "trace-off" side of bench E9). *)

module Jout = Jout
module Trace = Trace
module Metrics = Metrics
module Sink = Sink

type t = {
  on : bool Atomic.t;  (* read from every domain; a plain mutable bool
                          would be an unsynchronized cross-domain read *)
  sinks : Sink.t list Atomic.t;
      (* registration order; emit iterates as-is. Registration is rare,
         emit is per-span: [add_sink] copies the list and swings the
         pointer, so emit reads it with one atomic load. *)
  spans_emitted : int Atomic.t;
  metrics : Metrics.t;
}

let create ?(enabled = true) () =
  {
    on = Atomic.make enabled;
    sinks = Atomic.make [];
    spans_emitted = Atomic.make 0;
    metrics = Metrics.create ();
  }

let enabled t = Atomic.get t.on
let set_enabled t on = Atomic.set t.on on
let metrics t = t.metrics

let add_sink t sink = Locked.update t.sinks (fun l -> (l @ [ sink ], ()))

let sink_names t =
  List.map (fun (s : Sink.t) -> s.Sink.name) (Atomic.get t.sinks)

let emit t span =
  if Atomic.get t.on then begin
    Atomic.incr t.spans_emitted;
    (* Sinks never propagate: losing a span beats failing a call. *)
    List.iter
      (fun (s : Sink.t) -> try s.Sink.emit span with _ -> ())
      (Atomic.get t.sinks)
  end

let observe t ~name seconds =
  if Atomic.get t.on then Metrics.observe t.metrics ~name seconds

let add_bytes t ~endpoint ~dir n =
  if Atomic.get t.on then Metrics.add_bytes t.metrics ~endpoint ~dir n

let incr t ~name = if Atomic.get t.on then Metrics.incr t.metrics ~name

let set_gauge t ~name v =
  if Atomic.get t.on then Metrics.set_gauge t.metrics ~name v

(* ---------------- snapshots ---------------- *)

type snapshot = { spans_emitted : int; metrics : Metrics.snapshot }

let snapshot (t : t) =
  {
    spans_emitted = Atomic.get t.spans_emitted;
    metrics = Metrics.snapshot t.metrics;
  }

let snapshot_to_json s =
  Jout.obj
    [
      ("spans_emitted", Jout.int s.spans_emitted);
      ("metrics", Metrics.snapshot_to_json s.metrics);
    ]
