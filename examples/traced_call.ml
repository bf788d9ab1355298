(* Observability, end to end: two ORBs with tracing enabled, a couple of
   calls (one of them failing), then the evidence — correlated
   client/server spans, latency histograms and wire byte counters.

     dune exec examples/traced_call.exe

   The client ORB opens a span around each invocation and propagates its
   trace context in the request's trailer; the server ORB
   joins it with a child span around dispatch. Spans stream to the sinks
   registered on each side (here: a bounded ring we read at the end, and
   JSONL on stderr so the raw export format is visible too). *)

let () =
  (* Each side gets its own Obs instance — separate processes in real
     deployments; the trace context on the wire is what links them. *)
  let server_obs = Obs.create () in
  let server_ring, server_spans = Obs.Sink.ring () in
  Obs.add_sink server_obs server_ring;

  let client_obs = Obs.create () in
  let client_ring, client_spans = Obs.Sink.ring () in
  Obs.add_sink client_obs client_ring;
  Obs.add_sink client_obs (Obs.Sink.stderr_jsonl ());

  let server = Orb.create ~transport:"mem" ~host:"local" ~obs:server_obs () in
  Orb.start server;
  let target =
    Orb.export server
      (Orb.Skeleton.create ~type_id:"IDL:Demo/Greeter:1.0"
         [
           ("greet", fun args results ->
               results.Wire.Codec.put_string
                 ("hello, " ^ args.Wire.Codec.get_string ()));
         ])
  in

  let client = Orb.create ~transport:"mem" ~host:"local" ~obs:client_obs () in
  (* The stock interceptor adds per-operation request/outcome counters on
     top of the built-in spans and histograms. *)
  Orb.Interceptor.add
    (Orb.client_interceptors client)
    (Orb.Obs.interceptor client_obs);

  (match
     Orb.invoke client target ~op:"greet" (fun e ->
         e.Wire.Codec.put_string "world")
   with
  | Some d -> Printf.printf "reply: %s\n" (d.Wire.Codec.get_string ())
  | None -> ());
  (* A failing call is traced too: the span records the outcome. *)
  (try
     ignore
       (Orb.invoke client target ~op:"no_such_op" (fun e ->
            e.Wire.Codec.put_string "x"))
   with Orb.System_exception _ -> ());

  (* The correlation the wire context buys: client and server spans of
     one call share a trace id, and the server span's parent is the
     client span. *)
  let c = List.hd (client_spans ()) and s = List.hd (server_spans ()) in
  Printf.printf "\nclient span: trace=%s span=%s op=%s\n" c.Obs.Trace.trace_id
    c.Obs.Trace.span_id c.Obs.Trace.operation;
  Printf.printf "server span: trace=%s parent=%s op=%s\n" s.Obs.Trace.trace_id
    (match s.Obs.Trace.parent_id with Some p -> p | None -> "-")
    s.Obs.Trace.operation;
  Printf.printf "same trace: %b; server's parent is client span: %b\n"
    (c.Obs.Trace.trace_id = s.Obs.Trace.trace_id)
    (s.Obs.Trace.parent_id = Some c.Obs.Trace.span_id);
  Printf.printf
    "client phases (s): marshal=%.2e send=%.2e wait=%.2e unmarshal=%.2e\n"
    c.Obs.Trace.marshal_s c.Obs.Trace.send_s c.Obs.Trace.wait_s
    c.Obs.Trace.unmarshal_s;

  (* Metrics: histograms fed by invoke/dispatch, byte counters fed by the
     metered channels, counters fed by the stock interceptor. *)
  let snap = Obs.snapshot client_obs in
  print_endline "\nclient metrics:";
  List.iter
    (fun (h : Obs.Metrics.hist_view) ->
      Printf.printf "  %-24s total=%d mean=%.1fus max=%.1fus\n" h.Obs.Metrics.name
        h.Obs.Metrics.total
        (h.Obs.Metrics.mean_s *. 1e6)
        (h.Obs.Metrics.max_s *. 1e6))
    snap.Obs.metrics.Obs.Metrics.latencies;
  List.iter
    (fun (b : Obs.Metrics.bytes_view) ->
      Printf.printf "  %-24s out=%dB (%d writes) in=%dB (%d reads)\n"
        b.Obs.Metrics.endpoint b.Obs.Metrics.bytes_out b.Obs.Metrics.writes
        b.Obs.Metrics.bytes_in b.Obs.Metrics.reads)
    snap.Obs.metrics.Obs.Metrics.endpoints;
  List.iter
    (fun (name, v) -> Printf.printf "  %-24s %d\n" name v)
    snap.Obs.metrics.Obs.Metrics.counters;

  Orb.shutdown client;
  Orb.shutdown server
