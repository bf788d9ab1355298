(* Observability tests: span lifecycle, trace-context propagation across
   address spaces, wire-byte metrics, sinks, and the stock interceptor.
   The tcp test is the layer's acceptance criterion: a real two-process
   -style call yields a client span and a server span sharing one trace
   id, with all four client phase timings populated. *)

module Trace = Obs.Trace
module Metrics = Obs.Metrics

let echo_type = "IDL:Test/Echo:1.0"

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ()));
      ("fail", fun _ _ ->
          raise
            (Orb.Skeleton.User_exception
               {
                 repo_id = "IDL:Test/Oops:1.0";
                 encode = (fun e -> e.Wire.Codec.put_string "why");
               }));
      ("noreply", fun args _ -> ignore (args.Wire.Codec.get_string ()));
    ]

let invoke_string client target ~op s =
  match Orb.invoke client target ~op (fun e -> e.Wire.Codec.put_string s) with
  | Some d -> d.Wire.Codec.get_string ()
  | None -> Alcotest.fail "expected a reply"

(* Spans travel from the server's dispatch thread to the test thread;
   poll the ring until the expected count arrives. *)
let await_spans ?(n = 1) read =
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec go () =
    let spans = read () in
    if List.length spans >= n || Unix.gettimeofday () > deadline then spans
    else (
      Thread.delay 0.01;
      go ())
  in
  go ()

(* ---------------- context codec ---------------- *)

let test_context_roundtrip () =
  let s = Trace.start_client ~operation:"f" ~endpoint:"mem:local:1" () in
  (match Trace.decode_context (Trace.encode_context s) with
  | Some (trace_id, span_id) ->
      Alcotest.(check string) "trace id" s.Trace.trace_id trace_id;
      Alcotest.(check string) "span id" s.Trace.span_id span_id
  | None -> Alcotest.fail "well-formed context did not decode");
  Alcotest.(check int) "trace id width" 16 (String.length s.Trace.trace_id);
  Alcotest.(check int) "span id width" 8 (String.length s.Trace.span_id)

let test_context_tolerance () =
  (* Propagation must never fail a call: every malformed input decodes
     to None (= start a fresh root), never an exception. *)
  List.iter
    (fun bad ->
      match Trace.decode_context bad with
      | None -> ()
      | Some _ -> Alcotest.failf "accepted malformed context %S" bad)
    [
      "";
      "-";
      "nohyphen";
      "0123456789abcdef";  (* missing span part *)
      "0123456789abcdef-";  (* empty span part *)
      "-00112233";  (* empty trace part *)
      "0123456789ABCDEF-00112233";  (* upper case is not ours *)
      "0123456789abcdeg-00112233";  (* non-hex *)
      "0123456789abcdef-00112233-extra";
      "x";
      String.make 33 'a' ^ "-00112233";  (* trace id over 32 digits *)
      "0123456789abcdef-" ^ String.make 17 'b';  (* span id over 16 *)
    ];
  (* The widest ids a peer may send: 32 and 16 hex digits. *)
  let widest = String.make 32 'a' ^ "-" ^ String.make 16 'b' in
  Alcotest.(check int) "widest context is the bound" Trace.max_context_bytes
    (String.length widest);
  Alcotest.(check bool) "widest context accepted" true
    (Trace.decode_context widest <> None);
  (* A 4 KiB hex context starts a fresh root span. *)
  let s =
    Trace.start_server
      ?context:(Trace.decode_context (String.make 4096 'a' ^ "-" ^ String.make 8 'b'))
      ~operation:"f" ~endpoint:"e" ()
  in
  Alcotest.(check (option string)) "fresh root" None s.Trace.parent_id;
  Alcotest.(check int) "own trace id" 16 (String.length s.Trace.trace_id)

let test_ids_unique () =
  let ids = List.init 64 (fun _ -> Trace.new_span_id ()) in
  Alcotest.(check int) "no collisions in 64 draws" 64
    (List.length (List.sort_uniq compare ids))

let test_span_lifecycle () =
  let s = Trace.start_client ~operation:"f" ~endpoint:"e" () in
  Alcotest.(check bool) "unfinished" false (Trace.finished s);
  Alcotest.(check bool) "duration NaN while open" true
    (Float.is_nan (Trace.duration s));
  Trace.note s "k" "v";
  Trace.finish s Trace.Ok;
  Alcotest.(check bool) "finished" true (Trace.finished s);
  Alcotest.(check bool) "duration set" true (Trace.duration s >= 0.);
  (* JSON renders without raising and carries the ids. *)
  let json = Trace.to_json s in
  Tutil.check_contains ~what:"json trace id" json s.Trace.trace_id;
  Tutil.check_contains ~what:"json note" json "\"k\"";
  (* Server span joins the client's trace. *)
  let srv =
    Trace.start_server
      ?context:(Trace.decode_context (Trace.encode_context s))
      ~operation:"f" ~endpoint:"e" ()
  in
  Alcotest.(check string) "joined trace" s.Trace.trace_id srv.Trace.trace_id;
  Alcotest.(check (option string)) "parent" (Some s.Trace.span_id)
    srv.Trace.parent_id

(* ---------------- metrics ---------------- *)

let test_histogram_buckets () =
  let m = Metrics.create () in
  Metrics.observe m ~name:"h" 1.5e-6;  (* second bucket: (1e-6, 2e-6] *)
  Metrics.observe m ~name:"h" 0.003;
  Metrics.observe m ~name:"h" 0.003;
  Metrics.observe m ~name:"h" 100.0;  (* overflow *)
  Metrics.observe m ~name:"h" Float.nan;  (* dropped: untimed phase *)
  let snap = Metrics.snapshot m in
  match snap.Metrics.latencies with
  | [ h ] ->
      Alcotest.(check string) "name" "h" h.Metrics.name;
      Alcotest.(check int) "total excludes NaN" 4 h.Metrics.total;
      Alcotest.(check (float 1e-9)) "max" 100.0 h.Metrics.max_s;
      let count_at bound =
        try List.assoc bound h.Metrics.buckets with Not_found -> 0
      in
      Alcotest.(check int) "2us bucket" 1 (count_at 2e-6);
      Alcotest.(check int) "5ms bucket" 2 (count_at 0.005);
      Alcotest.(check int) "overflow bucket" 1 (count_at infinity);
      Alcotest.(check int) "bucket counts sum to total" h.Metrics.total
        (List.fold_left (fun acc (_, c) -> acc + c) 0 h.Metrics.buckets)
  | l -> Alcotest.failf "expected one histogram, got %d" (List.length l)

let test_byte_counters () =
  let m = Metrics.create () in
  Metrics.add_bytes m ~endpoint:"tcp:h:1" ~dir:`Out 10;
  Metrics.add_bytes m ~endpoint:"tcp:h:1" ~dir:`Out 5;
  Metrics.add_bytes m ~endpoint:"tcp:h:1" ~dir:`In 7;
  Metrics.add_bytes m ~endpoint:"tcp:h:2" ~dir:`In 1;
  let snap = Metrics.snapshot m in
  match snap.Metrics.endpoints with
  | [ a; b ] ->
      Alcotest.(check string) "sorted" "tcp:h:1" a.Metrics.endpoint;
      Alcotest.(check int) "out" 15 a.Metrics.bytes_out;
      Alcotest.(check int) "in" 7 a.Metrics.bytes_in;
      Alcotest.(check int) "writes" 2 a.Metrics.writes;
      Alcotest.(check int) "reads" 1 a.Metrics.reads;
      Alcotest.(check int) "other endpoint" 1 b.Metrics.bytes_in
  | l -> Alcotest.failf "expected two endpoints, got %d" (List.length l)

let test_snapshot_json () =
  let obs = Obs.create () in
  Obs.observe obs ~name:"invoke:echo" 0.004;
  Obs.add_bytes obs ~endpoint:"mem:local:9" ~dir:`Out 33;
  Obs.incr obs ~name:"req:echo";
  let json = Obs.snapshot_to_json (Obs.snapshot obs) in
  List.iter
    (fun frag -> Tutil.check_contains ~what:("json has " ^ frag) json frag)
    [
      "\"spans_emitted\""; "\"latencies\""; "\"invoke:echo\"";
      "\"endpoints\""; "\"mem:local:9\""; "\"bytes_out\": 33";
      "\"counters\""; "\"req:echo\"";
    ]

(* ---------------- sinks ---------------- *)

let finished_span op =
  let s = Trace.start_client ~operation:op ~endpoint:"e" () in
  Trace.finish s Trace.Ok;
  s

let test_ring_sink () =
  let sink, read = Obs.Sink.ring ~capacity:3 () in
  for i = 1 to 5 do
    sink.Obs.Sink.emit (finished_span (string_of_int i))
  done;
  let ops = List.map (fun s -> s.Trace.operation) (read ()) in
  (* Bounded: the two oldest were dropped; reader is oldest-first. *)
  Alcotest.(check (list string)) "ring keeps newest, in order"
    [ "3"; "4"; "5" ] ops

let test_sink_exceptions_swallowed () =
  let obs = Obs.create () in
  Obs.add_sink obs (Obs.Sink.make ~name:"bomb" (fun _ -> failwith "boom"));
  let sink, read = Obs.Sink.ring () in
  Obs.add_sink obs sink;
  Obs.emit obs (finished_span "x");
  Alcotest.(check int) "later sinks still run" 1 (List.length (read ()));
  Alcotest.(check int) "span counted" 1 (Obs.snapshot obs).Obs.spans_emitted;
  Alcotest.(check (list string)) "both sinks registered" [ "bomb"; "ring" ]
    (Obs.sink_names obs)

let test_disabled_is_inert () =
  let obs = Obs.create ~enabled:false () in
  let sink, read = Obs.Sink.ring () in
  Obs.add_sink obs sink;
  Obs.emit obs (finished_span "x");
  Obs.observe obs ~name:"h" 1.0;
  Obs.add_bytes obs ~endpoint:"e" ~dir:`In 1;
  Obs.incr obs ~name:"c";
  Alcotest.(check int) "no spans" 0 (List.length (read ()));
  let snap = Obs.snapshot obs in
  Alcotest.(check int) "no latencies" 0 (List.length snap.Obs.metrics.Metrics.latencies);
  Alcotest.(check int) "no endpoints" 0 (List.length snap.Obs.metrics.Metrics.endpoints);
  Alcotest.(check int) "no counters" 0 (List.length snap.Obs.metrics.Metrics.counters)

(* ---------------- end to end ---------------- *)

let with_traced_pair ?(codecs = []) ~transport ~host f =
  let server_obs = Obs.create () in
  let client_obs = Obs.create () in
  let server = Orb.create ~transport ~host ~codecs ~obs:server_obs () in
  Orb.start server;
  let client = Orb.create ~transport ~host ~codecs ~obs:client_obs () in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () -> f ~server ~client ~server_obs ~client_obs)

(* Acceptance criterion: a traced call over real TCP produces a client
   span and a server span sharing one trace id, parent-linked, with all
   four client phase timings populated. *)
let test_tcp_trace_propagation () =
  with_traced_pair ~transport:"tcp" ~host:"127.0.0.1"
    (fun ~server ~client ~server_obs ~client_obs ->
      let client_sink, client_spans = Obs.Sink.ring () in
      Obs.add_sink client_obs client_sink;
      let server_sink, server_spans = Obs.Sink.ring () in
      Obs.add_sink server_obs server_sink;
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call works" "echo:hi"
        (invoke_string client target ~op:"echo" "hi");
      let cs =
        match client_spans () with [ s ] -> s | l -> Alcotest.failf "client spans: %d" (List.length l)
      in
      let ss =
        match await_spans server_spans with
        | [ s ] -> s
        | l -> Alcotest.failf "server spans: %d" (List.length l)
      in
      Alcotest.(check string) "one trace" cs.Trace.trace_id ss.Trace.trace_id;
      Alcotest.(check (option string)) "parent link" (Some cs.Trace.span_id)
        ss.Trace.parent_id;
      Alcotest.(check bool) "client kind" true (cs.Trace.kind = Trace.Client);
      Alcotest.(check bool) "server kind" true (ss.Trace.kind = Trace.Server);
      Alcotest.(check string) "operation" "echo" cs.Trace.operation;
      Alcotest.(check bool) "outcomes ok" true
        (cs.Trace.outcome = Some Trace.Ok && ss.Trace.outcome = Some Trace.Ok);
      (* All four client phases were timed. *)
      List.iter
        (fun (name, v) ->
          Alcotest.(check bool) (name ^ " populated") false (Float.is_nan v))
        [
          ("marshal", cs.Trace.marshal_s);
          ("send", cs.Trace.send_s);
          ("wait", cs.Trace.wait_s);
          ("unmarshal", cs.Trace.unmarshal_s);
        ];
      Alcotest.(check bool) "req ids assigned" true
        (cs.Trace.req_id > 0 && cs.Trace.req_id = ss.Trace.req_id);
      (* Wire metrics flowed on both sides. *)
      (* Every metered byte is double-accounted: once under the plain
         endpoint label and once under a per-codec twin
         ([<codec>:<endpoint>]). The plain label holds the totals; the
         twin must mirror it exactly here, since all traffic travelled
         in the base codec. *)
      let bytes_of obs =
        let eps = (Obs.snapshot obs).Obs.metrics.Metrics.endpoints in
        match
          List.partition
            (fun e -> String.starts_with ~prefix:"tcp:" e.Metrics.endpoint)
            eps
        with
        | [ e ], [ twin ] ->
            Alcotest.(check string) "per-codec twin label"
              ("heidi-text:" ^ e.Metrics.endpoint)
              twin.Metrics.endpoint;
            Alcotest.(check int) "per-codec twin in" e.Metrics.bytes_in
              twin.Metrics.bytes_in;
            Alcotest.(check int) "per-codec twin out" e.Metrics.bytes_out
              twin.Metrics.bytes_out;
            (e.Metrics.bytes_in, e.Metrics.bytes_out)
        | l, l' -> Alcotest.failf "endpoints: %d + %d" (List.length l) (List.length l')
      in
      let cin, cout = bytes_of client_obs in
      Alcotest.(check bool) "client bytes counted" true (cin > 0 && cout > 0);
      (* Loopback conservation: what one side wrote the other read. The
         server's counters are bumped on its dispatch thread after the
         write syscall returns — the client can observe the reply a
         moment earlier, so poll like [await_spans] does. *)
      let sin_, sout =
        let deadline = Unix.gettimeofday () +. 2.0 in
        let rec go () =
          let (sin_, sout) = bytes_of server_obs in
          if (sin_ = cout && sout = cin) || Unix.gettimeofday () > deadline
          then (sin_, sout)
          else (
            Thread.delay 0.01;
            go ())
        in
        go ()
      in
      Alcotest.(check int) "client out = server in" cout sin_;
      Alcotest.(check int) "server out = client in" sout cin;
      (* Latency histograms were fed on both sides. *)
      let hist_names obs =
        List.map
          (fun h -> h.Metrics.name)
          (Obs.snapshot obs).Obs.metrics.Metrics.latencies
      in
      Alcotest.(check (list string)) "client histogram" [ "invoke:echo" ]
        (hist_names client_obs);
      Alcotest.(check (list string)) "server histogram" [ "dispatch:echo" ]
        (hist_names server_obs))

let test_outcomes_recorded () =
  with_traced_pair ~transport:"mem" ~host:"local"
    (fun ~server ~client ~server_obs:_ ~client_obs ->
      let sink, spans = Obs.Sink.ring () in
      Obs.add_sink client_obs sink;
      let target = Orb.export server (echo_skeleton ()) in
      (match Orb.invoke client target ~op:"fail" (fun _ -> ()) with
      | exception Orb.Remote_exception _ -> ()
      | _ -> Alcotest.fail "expected Remote_exception");
      (match Orb.invoke client target ~op:"nope" (fun _ -> ()) with
      | exception Orb.System_exception _ -> ()
      | _ -> Alcotest.fail "expected System_exception");
      ignore
        (Orb.invoke client target ~op:"noreply" ~oneway:true (fun e ->
             e.Wire.Codec.put_string "x"));
      match spans () with
      | [ s1; s2; s3 ] ->
          Alcotest.(check bool) "user exception outcome" true
            (s1.Trace.outcome = Some (Trace.User_exception "IDL:Test/Oops:1.0"));
          (match s2.Trace.outcome with
          | Some (Trace.System_error _) -> ()
          | o ->
              Alcotest.failf "system error outcome: %s"
                (match o with Some o -> Trace.outcome_to_string o | None -> "none"));
          Alcotest.(check bool) "oneway ok" true (s3.Trace.outcome = Some Trace.Ok);
          (* A oneway call never waits: the wait phase stays untimed. *)
          Alcotest.(check bool) "oneway wait untimed" true
            (Float.is_nan s3.Trace.wait_s)
      | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l))

let test_locate_and_probe_emit_no_spans () =
  (* Control-plane traffic (locate; also the breaker's half-open probe,
     which shares the span-less path) must not pollute call traces. *)
  with_traced_pair ~transport:"mem" ~host:"local"
    (fun ~server ~client ~server_obs ~client_obs ->
      let csink, cspans = Obs.Sink.ring () in
      Obs.add_sink client_obs csink;
      let ssink, sspans = Obs.Sink.ring () in
      Obs.add_sink server_obs ssink;
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check bool) "located" true (Orb.locate client target);
      Alcotest.(check bool) "missing" false
        (Orb.locate client
           (Orb.Objref.make_multi ~endpoints:(Orb.Objref.endpoints target)
              ~oid:"none" ~type_id:target.Orb.Objref.type_id));
      Thread.delay 0.05;
      Alcotest.(check int) "no client spans" 0 (List.length (cspans ()));
      Alcotest.(check int) "no server spans" 0 (List.length (sspans ()));
      (* ... but a traced call right after still produces its pair. *)
      Alcotest.(check string) "call works" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      Alcotest.(check int) "client span" 1 (List.length (cspans ()));
      Alcotest.(check int) "server span" 1
        (List.length (await_spans sspans)))

let test_disabled_obs_sends_no_context () =
  (* An untraced client (the default) must put nothing in the
     service-context slot: the wire bytes stay legacy-identical. *)
  let server = Orb.create () in
  Orb.start server;
  let client = Orb.create () in
  let seen_ctx = ref (Some "unset") in
  Orb.Interceptor.add
    (Orb.server_interceptors server)
    (Orb.Interceptor.make "ctx-probe" ~on_request:(fun req ->
         seen_ctx := Some req.Orb.Protocol.trace_ctx;
         req));
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      Alcotest.(check (option string)) "empty context on the wire" (Some "")
        !seen_ctx;
      (* And the disabled obs instance observed nothing. *)
      let snap = Obs.snapshot (Orb.obs client) in
      Alcotest.(check int) "no spans" 0 snap.Obs.spans_emitted;
      Alcotest.(check int) "no metrics" 0
        (List.length snap.Obs.metrics.Metrics.latencies))

let test_stock_interceptor_composes () =
  with_traced_pair ~transport:"mem" ~host:"local"
    (fun ~server ~client ~server_obs:_ ~client_obs ->
      (* The stock metrics interceptor next to a user interceptor. *)
      Orb.Interceptor.add (Orb.client_interceptors client)
        (Orb.Obs.interceptor client_obs);
      let user_counter, read_count = Orb.Interceptor.call_counter () in
      Orb.Interceptor.add (Orb.client_interceptors client) user_counter;
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      (match Orb.invoke client target ~op:"fail" (fun _ -> ()) with
      | exception Orb.Remote_exception _ -> ()
      | _ -> Alcotest.fail "expected Remote_exception");
      Alcotest.(check int) "user interceptor saw both" 2 (read_count ());
      let counters = (Obs.snapshot client_obs).Obs.metrics.Metrics.counters in
      let count name =
        try List.assoc name counters with Not_found -> 0
      in
      Alcotest.(check int) "req:echo" 1 (count "req:echo");
      Alcotest.(check int) "ok:echo" 1 (count "ok:echo");
      Alcotest.(check int) "req:fail" 1 (count "req:fail");
      Alcotest.(check int) "uexn:fail" 1 (count "uexn:fail"))

let test_retry_count_on_span () =
  (* A crash-restart under a retry policy: the surviving call's span
     records the extra attempt. *)
  let port = 47301 in
  let fresh_server () =
    let s = Orb.create ~transport:"mem" ~host:"local" ~port () in
    Orb.start s;
    (s, Orb.export s (echo_skeleton ()))
  in
  let obs = Obs.create () in
  let sink, spans = Obs.Sink.ring () in
  Obs.add_sink obs sink;
  let retry =
    { Orb.Retry.default with max_attempts = 3; base_delay = 0.005; jitter = 0. }
  in
  let client = Orb.create ~transport:"mem" ~host:"local" ~retry ~obs () in
  let server, target = fresh_server () in
  Alcotest.(check string) "before" "echo:a" (invoke_string client target ~op:"echo" "a");
  Orb.shutdown server;
  let server2, _ = fresh_server () in
  Alcotest.(check string) "survives" "echo:b" (invoke_string client target ~op:"echo" "b");
  (match spans () with
  | [ first; second ] ->
      Alcotest.(check int) "no retries on first" 0 first.Trace.retries;
      Alcotest.(check int) "one retry recorded" 1 second.Trace.retries
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  Orb.shutdown client;
  Orb.shutdown server2

(* Each attempt records the codec its payload travelled in as a [codec]
   note, on the client span and on the server span: a trace tells
   whether a call rode text or the negotiated hcx. *)
let test_codec_note () =
  with_traced_pair ~codecs:[ Orb.Protocol.hcx ] ~transport:"mem" ~host:"local"
    (fun ~server ~client ~server_obs ~client_obs ->
      let client_sink, client_spans = Obs.Sink.ring () in
      Obs.add_sink client_obs client_sink;
      let server_sink, server_spans = Obs.Sink.ring () in
      Obs.add_sink server_obs server_sink;
      let target = Orb.export server (echo_skeleton ()) in
      for i = 1 to 3 do
        Alcotest.(check string) "call" ("echo:" ^ string_of_int i)
          (invoke_string client target ~op:"echo" (string_of_int i))
      done;
      let codecs spans =
        List.map
          (fun s ->
            List.filter_map
              (fun (k, v) -> if k = "codec" then Some v else None)
              s.Trace.notes)
          spans
      in
      let want = [ [ "text" ]; [ "hcx" ]; [ "hcx" ] ] in
      Alcotest.(check (list (list string))) "client spans" want
        (codecs (client_spans ()));
      Alcotest.(check (list (list string))) "server spans" want
        (codecs (await_spans ~n:3 server_spans));
      Tutil.check_contains ~what:"note in the span JSON"
        (Trace.to_json (List.nth (client_spans ()) 1))
        {|"notes": {"codec": "hcx"}|})

(* The ORB's event counters ignore the tracing switch: with both sides on
   disabled instances (no spans, no histograms), the registry still holds
   the connection, negotiation and dispatch counts, and [Orb.stats] is a
   view of exactly those counters. *)
let test_orb_counters_with_tracing_off () =
  let server_obs = Obs.create ~enabled:false () in
  let client_obs = Obs.create ~enabled:false () in
  let codecs = [ Orb.Protocol.hcx ] in
  let server = Orb.create ~codecs ~obs:server_obs () in
  Orb.start server;
  let client = Orb.create ~codecs ~obs:client_obs () in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () ->
      let target = Orb.export server (echo_skeleton ()) in
      for i = 1 to 3 do
        Alcotest.(check string) "call" ("echo:" ^ string_of_int i)
          (invoke_string client target ~op:"echo" (string_of_int i))
      done;
      let counters obs =
        let snap = Obs.snapshot obs in
        Alcotest.(check int) "no spans" 0 snap.Obs.spans_emitted;
        Alcotest.(check int) "no histograms" 0
          (List.length snap.Obs.metrics.Metrics.latencies);
        fun name ->
          match List.assoc_opt name snap.Obs.metrics.Metrics.counters with
          | Some n -> n
          | None -> Alcotest.failf "counter %s missing" name
      in
      let cc = counters client_obs and sc = counters server_obs in
      let cst = Orb.stats client and sst = Orb.stats server in
      Alcotest.(check int) "client:connections_opened" 1
        (cc "client:connections_opened");
      Alcotest.(check int) "client:codec_negotiated" 1
        (cc "client:codec_negotiated");
      Alcotest.(check int) "server:codec_negotiated" 1
        (sc "server:codec_negotiated");
      Alcotest.(check int) "server:served" 3 (sc "server:served");
      Alcotest.(check int) "stats.opened" (cc "client:connections_opened")
        cst.Orb.opened;
      Alcotest.(check int) "connections_opened"
        (cc "client:connections_opened")
        (Orb.connections_opened client);
      Alcotest.(check int) "client stats.codec_negotiations"
        (cc "client:codec_negotiated")
        cst.Orb.codec_negotiations;
      Alcotest.(check int) "server stats.codec_negotiations"
        (sc "server:codec_negotiated")
        sst.Orb.codec_negotiations;
      Alcotest.(check int) "stats.served" (sc "server:served") sst.Orb.served;
      Alcotest.(check int) "requests_served" (sc "server:served")
        (Orb.requests_served server))

let () =
  Alcotest.run "obs"
    [
      ( "context",
        [
          Alcotest.test_case "round-trip" `Quick test_context_roundtrip;
          Alcotest.test_case "tolerant decode" `Quick test_context_tolerance;
          Alcotest.test_case "id uniqueness" `Quick test_ids_unique;
          Alcotest.test_case "span lifecycle" `Quick test_span_lifecycle;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "byte counters" `Quick test_byte_counters;
          Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "ring buffer" `Quick test_ring_sink;
          Alcotest.test_case "sink exceptions swallowed" `Quick
            test_sink_exceptions_swallowed;
          Alcotest.test_case "disabled instance is inert" `Quick
            test_disabled_is_inert;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "tcp trace propagation" `Quick
            test_tcp_trace_propagation;
          Alcotest.test_case "outcomes recorded" `Quick test_outcomes_recorded;
          Alcotest.test_case "locate/probe emit no spans" `Quick
            test_locate_and_probe_emit_no_spans;
          Alcotest.test_case "disabled obs sends no context" `Quick
            test_disabled_obs_sends_no_context;
          Alcotest.test_case "stock interceptor composes" `Quick
            test_stock_interceptor_composes;
          Alcotest.test_case "retry count on span" `Quick test_retry_count_on_span;
          Alcotest.test_case "codec note per attempt" `Quick test_codec_note;
          Alcotest.test_case "orb counters count with tracing off" `Quick
            test_orb_counters_with_tracing_off;
        ] );
    ]
