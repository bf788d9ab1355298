(* ORB integration tests: remote calls end to end (paper Figs. 4-5),
   across transports and protocols, including failure paths and the
   caching behaviour of Section 3.1. *)

let echo_type = "IDL:Test/Echo:1.0"

let echo_skeleton ?(trace = ref []) () =
  let log ev = trace := ev :: !trace in
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          log `Unmarshal;
          let s = args.Wire.Codec.get_string () in
          log `Invoke;
          results.Wire.Codec.put_string ("echo:" ^ s);
          log `Marshal_result);
      ("add", fun args results ->
          let a = args.Wire.Codec.get_long () in
          let b = args.Wire.Codec.get_long () in
          results.Wire.Codec.put_long (a + b));
      ("fail", fun _ _ ->
          raise
            (Orb.Skeleton.User_exception
               {
                 repo_id = "IDL:Test/Oops:1.0";
                 encode = (fun e -> e.Wire.Codec.put_string "details");
               }));
      ("crash", fun _ _ -> failwith "servant bug");
      ("sleepy", fun args results ->
          Thread.delay (float_of_int (args.Wire.Codec.get_long ()) /. 1000.);
          results.Wire.Codec.put_bool true);
      ("noreply", fun args _ -> ignore (args.Wire.Codec.get_string ()));
    ]

let configs =
  [
    ("mem/text", "mem", "local", Orb.Protocol.text);
    ("mem/giop", "mem", "local", Giop.protocol ());
    ("tcp/text", "tcp", "127.0.0.1", Orb.Protocol.text);
    ("tcp/giop-le", "tcp", "127.0.0.1", Giop.protocol ~order:Wire.Cdr_codec.Little_endian ());
  ]

let with_pair (name, transport, host, protocol) f =
  let server = Orb.create ~protocol ~transport ~host () in
  Orb.start server;
  let client = Orb.create ~protocol ~transport ~host () in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () -> f ~name ~server ~client)

let invoke_string client target ~op s =
  match
    Orb.invoke client target ~op (fun e -> e.Wire.Codec.put_string s)
  with
  | Some d -> d.Wire.Codec.get_string ()
  | None -> Alcotest.fail "expected a reply"

let test_basic_calls () =
  List.iter
    (fun cfg ->
      with_pair cfg (fun ~name ~server ~client ->
          let target = Orb.export server (echo_skeleton ()) in
          Alcotest.(check string) (name ^ " echo") "echo:hi"
            (invoke_string client target ~op:"echo" "hi");
          (match
             Orb.invoke client target ~op:"add" (fun e ->
                 e.Wire.Codec.put_long 40;
                 e.Wire.Codec.put_long 2)
           with
          | Some d -> Alcotest.(check int) (name ^ " add") 42 (d.Wire.Codec.get_long ())
          | None -> Alcotest.fail "no reply");
          (* Several sequential calls over the same cached connection. *)
          for i = 1 to 10 do
            Alcotest.(check string) name
              (Printf.sprintf "echo:%d" i)
              (invoke_string client target ~op:"echo" (string_of_int i))
          done;
          Alcotest.(check int) (name ^ " one connection") 1
            (Orb.connections_opened client)))
    configs

let test_user_exception () =
  List.iter
    (fun cfg ->
      with_pair cfg (fun ~name ~server ~client ->
          let target = Orb.export server (echo_skeleton ()) in
          match Orb.invoke client target ~op:"fail" (fun _ -> ()) with
          | exception Orb.Remote_exception { repo_id; payload; codec } ->
              Alcotest.(check string) (name ^ " repo id") "IDL:Test/Oops:1.0" repo_id;
              let d = codec.Wire.Codec.decoder payload in
              Alcotest.(check string) (name ^ " members") "details"
                (d.Wire.Codec.get_string ())
          | _ -> Alcotest.fail "expected Remote_exception"))
    configs

let test_system_errors () =
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      (* Unknown operation. *)
      (match Orb.invoke client target ~op:"nope" (fun _ -> ()) with
      | exception Orb.System_exception m ->
          Tutil.check_contains ~what:"unknown op" m "no operation"
      | _ -> Alcotest.fail "expected System_exception");
      (* Unknown object. *)
      let bogus =
        Orb.Objref.make_multi ~endpoints:(Orb.Objref.endpoints target)
          ~oid:"99999" ~type_id:target.Orb.Objref.type_id
      in
      (match Orb.invoke client bogus ~op:"echo" (fun e -> e.Wire.Codec.put_string "x") with
      | exception Orb.System_exception m -> Tutil.check_contains ~what:"unknown oid" m "no object"
      | _ -> Alcotest.fail "expected System_exception");
      (* Servant crash is reported, connection survives. *)
      (match Orb.invoke client target ~op:"crash" (fun _ -> ()) with
      | exception Orb.System_exception m -> Tutil.check_contains ~what:"crash" m "servant bug"
      | _ -> Alcotest.fail "expected System_exception");
      Alcotest.(check string) "still alive" "echo:ok"
        (invoke_string client target ~op:"echo" "ok");
      (* Marshal error in the skeleton: handler reads a string, client
         sent a long. *)
      (match Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_long 3) with
      | exception Orb.System_exception m -> Tutil.check_contains ~what:"marshal" m "marshal error"
      | _ -> Alcotest.fail "expected System_exception");
      Alcotest.(check int) "single connection throughout" 1
        (Orb.connections_opened client))

let test_oneway () =
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check bool) "no reply" true
        (Orb.invoke client target ~op:"noreply" ~oneway:true (fun e ->
             e.Wire.Codec.put_string "fire and forget")
        = None);
      (* The connection is still usable for synchronous calls after. *)
      Alcotest.(check string) "sync after oneway" "echo:x"
        (invoke_string client target ~op:"echo" "x"))

(* Fig. 4/5: the interaction order — marshal at the stub, unmarshal in
   the skeleton, invoke the implementation, marshal the result. *)
let test_interaction_trace () =
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let trace = ref [] in
      let target = Orb.export server (echo_skeleton ~trace ()) in
      let client_marshalled = ref false in
      (match
         Orb.invoke client target ~op:"echo" (fun e ->
             client_marshalled := true;
             e.Wire.Codec.put_string "t")
       with
      | Some d -> ignore (d.Wire.Codec.get_string ())
      | None -> Alcotest.fail "no reply");
      Alcotest.(check bool) "stub marshalled" true !client_marshalled;
      Alcotest.(check bool) "server order" true
        (List.rev !trace = [ `Unmarshal; `Invoke; `Marshal_result ]))

let test_skeleton_cache () =
  (* Section 3.1: skeletons are created lazily and cached per address
     space; repeated passing of the same servant reuses the oid. *)
  with_pair (List.hd configs) (fun ~name:_ ~server ~client:_ ->
      let key = Orb.servant_key () in
      let built = ref 0 in
      let build () =
        incr built;
        echo_skeleton ()
      in
      let r1 = Orb.export_cached server ~key ~type_id:echo_type build in
      let r2 = Orb.export_cached server ~key ~type_id:echo_type build in
      Alcotest.(check bool) "same reference" true (Orb.Objref.equal r1 r2);
      Alcotest.(check int) "built once" 1 !built;
      Alcotest.(check int) "cache hit recorded" 1
        (Orb.Object_adapter.cache_hits (Orb.adapter server));
      (* A different servant gets a different oid. *)
      let r3 = Orb.export_cached server ~key:(Orb.servant_key ()) ~type_id:echo_type build in
      Alcotest.(check bool) "distinct" false (Orb.Objref.equal r1 r3))

let test_locate () =
  (* GIOP-style LocateRequest: the adapter answers without dispatching. *)
  List.iter
    (fun cfg ->
      with_pair cfg (fun ~name ~server ~client ->
          let target = Orb.export server (echo_skeleton ()) in
          Alcotest.(check bool) (name ^ " found") true (Orb.locate client target);
          let bogus =
            Orb.Objref.make_multi ~endpoints:(Orb.Objref.endpoints target)
              ~oid:"424242" ~type_id:target.Orb.Objref.type_id
          in
          Alcotest.(check bool) (name ^ " missing") false (Orb.locate client bogus);
          (* Normal calls still work on the same connection. *)
          Alcotest.(check string) (name ^ " still callable") "echo:x"
            (invoke_string client target ~op:"echo" "x")))
    configs

let test_named_export () =
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let target = Orb.export_named server ~oid:"bootstrap" (echo_skeleton ()) in
      Alcotest.(check string) "oid" "bootstrap" target.Orb.Objref.oid;
      Alcotest.(check string) "reachable" "echo:root"
        (invoke_string client target ~op:"echo" "root");
      (* Duplicate named export is rejected. *)
      match Orb.export_named server ~oid:"bootstrap" (echo_skeleton ()) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "duplicate oid accepted")

let test_auto_oid_skips_named () =
  (* Automatic oids are numbers too: one a named export already holds
     must be skipped, not silently replaced. *)
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let named =
        Orb.export_named server ~oid:"2"
          (Orb.Skeleton.create ~type_id:"IDL:Test/Named:1.0"
             [ ("who", fun _ results -> results.Wire.Codec.put_string "named") ])
      in
      let a = Orb.export server (echo_skeleton ()) in
      let b = Orb.export server (echo_skeleton ()) in
      Alcotest.(check (list string)) "auto oids skip \"2\"" [ "1"; "3" ]
        [ a.Orb.Objref.oid; b.Orb.Objref.oid ];
      Alcotest.(check string) "named servant still answers" "named"
        (invoke_string client named ~op:"who" "");
      Alcotest.(check string) "auto export answers" "echo:x"
        (invoke_string client b ~op:"echo" "x"))

let test_concurrent_clients () =
  with_pair (List.nth configs 2) (fun ~name:_ ~server ~client:_ ->
      let target = Orb.export server (echo_skeleton ()) in
      let worker i =
        Thread.create
          (fun () ->
            let client = Orb.create ~transport:"tcp" ~host:"127.0.0.1" () in
            let ok = ref true in
            for j = 1 to 20 do
              let want = Printf.sprintf "echo:%d-%d" i j in
              let got = invoke_string client target ~op:"echo" (Printf.sprintf "%d-%d" i j) in
              if got <> want then ok := false
            done;
            Orb.shutdown client;
            !ok)
          ()
      in
      let threads = List.init 8 worker in
      List.iter Thread.join threads;
      Alcotest.(check int) "served all" (8 * 20) (Orb.requests_served server))

let test_shared_client_concurrency () =
  (* Many threads sharing ONE client ORB: the per-connection mutex must
     serialize request/reply exchanges without mixing them up. *)
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      let failures = ref 0 in
      let fail_mutex = Mutex.create () in
      let worker i =
        Thread.create
          (fun () ->
            for j = 1 to 25 do
              let payload = Printf.sprintf "%d:%d" i j in
              let got = invoke_string client target ~op:"echo" payload in
              if got <> "echo:" ^ payload then (
                Mutex.lock fail_mutex;
                incr failures;
                Mutex.unlock fail_mutex)
            done)
          ()
      in
      let threads = List.init 6 worker in
      List.iter Thread.join threads;
      Alcotest.(check int) "no cross-talk" 0 !failures;
      Alcotest.(check int) "still one connection" 1 (Orb.connections_opened client))

let test_two_way_references () =
  (* Callbacks: the server invokes an object living in the client's
     address space, through the reference embedded in the request. *)
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      (* The client hosts the listener object, so it must be reachable. *)
      Orb.start client;
      let relayed = ref "" in
      let listener =
        Orb.Skeleton.create ~type_id:"IDL:Test/Listener:1.0"
          [ ("notify", fun args _ -> relayed := args.Wire.Codec.get_string ()) ]
      in
      let listener_ref = Orb.export client listener in
      let relay =
        Orb.Skeleton.create ~type_id:"IDL:Test/Relay:1.0"
          [
            ("send", fun args _ ->
                match Orb.Serial.get_byref args with
                | Some l ->
                    let text = args.Wire.Codec.get_string () in
                    ignore
                      (Orb.invoke server l ~op:"notify" (fun e ->
                           e.Wire.Codec.put_string ("relayed:" ^ text)))
                | None -> failwith "nil listener");
          ]
      in
      let relay_ref = Orb.export server relay in
      (match
         Orb.invoke client relay_ref ~op:"send" (fun e ->
             Orb.Serial.put_byref e (Some listener_ref);
             e.Wire.Codec.put_string "hello")
       with
      | Some _ -> ()
      | None -> Alcotest.fail "no reply");
      Alcotest.(check string) "callback delivered" "relayed:hello" !relayed)

let test_connection_retry_after_drop () =
  (* A stale cached connection is transparently reopened (client-side
     retry in Orb.invoke). We simulate by shutting the server listener
     down and restarting a fresh server on the same mem port is not
     possible; instead we drop the server side of the cached connection
     by restarting the whole server ORB on a fixed port. *)
  let port = 47113 in
  let server = Orb.create ~transport:"mem" ~host:"local" ~port () in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let client = Orb.create ~transport:"mem" ~host:"local" () in
  Alcotest.(check string) "first" "echo:a" (invoke_string client target ~op:"echo" "a");
  Orb.shutdown server;
  (* Bring up a replacement address space on the same port with the same
     oid layout. *)
  let server2 = Orb.create ~transport:"mem" ~host:"local" ~port () in
  Orb.start server2;
  let _ = Orb.export server2 (echo_skeleton ()) in
  Alcotest.(check string) "after reconnect" "echo:b"
    (invoke_string client target ~op:"echo" "b");
  Alcotest.(check int) "opened twice" 2 (Orb.connections_opened client);
  Orb.shutdown client;
  Orb.shutdown server2

let test_crash_restart_under_retry () =
  (* Crash-restart: the server ORB dies mid-session and a replacement
     comes up on the same port. A client with an explicit retry policy
     keeps working across the gap, and its stats record what happened. *)
  let port = 47117 in
  let fresh_server () =
    let s = Orb.create ~transport:"mem" ~host:"local" ~port () in
    Orb.start s;
    let r = Orb.export s (echo_skeleton ()) in
    (s, r)
  in
  let server, target = fresh_server () in
  let retry =
    { Orb.Retry.default with max_attempts = 4; base_delay = 0.005; jitter = 0. }
  in
  let client = Orb.create ~transport:"mem" ~host:"local" ~retry () in
  Alcotest.(check string) "before crash" "echo:a"
    (invoke_string client target ~op:"echo" "a");
  (* Crash and immediately restart: the client's cached connection is
     stale. The send fails before any reply bytes, so the policy safely
     drops the connection, reconnects to the new process and retries. *)
  Orb.shutdown server;
  let server2, _ = fresh_server () in
  Alcotest.(check string) "survives restart" "echo:b"
    (invoke_string client target ~op:"echo" "b");
  let st = Orb.stats client in
  Alcotest.(check int) "one reconnect retry" 1 st.Orb.retries;
  Alcotest.(check int) "reopened once" 2 st.Orb.opened;
  Alcotest.(check int) "served by the new process" 1 (Orb.requests_served server2);
  (* Now a real outage: the port goes dark. The policy burns its
     attempts and reports the failure instead of hanging. *)
  Orb.shutdown server2;
  (match invoke_string client target ~op:"echo" "lost" with
  | exception Orb.Transport.Transport_error _ -> ()
  | r -> Alcotest.failf "call into the outage returned %S" r);
  Alcotest.(check int) "attempts burned during outage" 4 (Orb.stats client).Orb.retries;
  (* And a second restart heals without intervention. *)
  let server3, _ = fresh_server () in
  Alcotest.(check string) "heals again" "echo:c"
    (invoke_string client target ~op:"echo" "c");
  Orb.shutdown client;
  Orb.shutdown server3

let test_server_connection_bound () =
  (* Regression (server-side leak): serve_connection must remove each
     closed connection from the accepted list, so churning clients leave
     the server near zero live connections, not a monotonic list. *)
  with_pair (List.hd configs) (fun ~name:_ ~server ~client:_ ->
      let target = Orb.export server (echo_skeleton ()) in
      for i = 1 to 8 do
        let c = Orb.create ~transport:"mem" ~host:"local" () in
        Alcotest.(check string) "call" ("echo:" ^ string_of_int i)
          (invoke_string c target ~op:"echo" (string_of_int i));
        Orb.shutdown c
      done;
      (* Closes propagate through the server's per-connection threads
         asynchronously; poll instead of a fixed sleep. *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec settle () =
        let live = (Orb.stats server).Orb.server_connections in
        if live <= 1 then live
        else if Unix.gettimeofday () > deadline then live
        else (
          Thread.delay 0.02;
          settle ())
      in
      let live = settle () in
      Alcotest.(check bool)
        (Printf.sprintf "connections reaped (%d live)" live)
        true (live <= 1))

let test_reply_id_mismatch_drops_connection () =
  (* Regression: a reply whose id does not match the request means the
     stream is desynchronized — whatever reply belongs to this request
     may still be in flight. The client must drop the cached connection
     before raising, or the next call on it would be handed the stale
     reply. *)
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "first call" "echo:a"
        (invoke_string client target ~op:"echo" "a");
      (* A server-side interceptor corrupts exactly one reply id — a
         scripted faulty peer. *)
      let corrupted = ref false in
      Orb.Interceptor.add
        (Orb.server_interceptors server)
        (Orb.Interceptor.make "corrupt-one-rep-id" ~on_reply:(fun _req rep ->
             if !corrupted then rep
             else begin
               corrupted := true;
               { rep with Orb.Protocol.rep_id = rep.Orb.Protocol.rep_id + 1000 }
             end));
      (match invoke_string client target ~op:"echo" "b" with
      | exception Orb.System_exception m ->
          Tutil.check_contains ~what:"mismatch reported" m "does not match"
      | r -> Alcotest.failf "corrupted reply returned %S" r);
      (* The poisoned connection was dropped: the next call transparently
         reconnects and sees a clean stream. *)
      Alcotest.(check string) "after drop" "echo:c"
        (invoke_string client target ~op:"echo" "c");
      Alcotest.(check int) "reconnected" 2 (Orb.stats client).Orb.opened)

let test_smart_proxy_oneway_rewrite () =
  (* Regression: an interceptor rewriting a call to oneway starves the
     smart proxy of the reply it wants to cache. That must surface as a
     System_exception naming the operation — it used to be an assertion
     failure. (Also exercises the invoke path honouring the
     post-interceptor oneway flag: were it ignored, this test would hang
     waiting for a reply the server never sends.) *)
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Orb.Interceptor.add
        (Orb.client_interceptors client)
        (Orb.Interceptor.make "force-oneway" ~on_request:(fun req ->
             if req.Orb.Protocol.operation = "noreply" then
               { req with Orb.Protocol.oneway = true }
             else req));
      let proxy = Orb.smart_proxy client target in
      (match
         Orb.Smart.call proxy ~op:"noreply" (fun e -> e.Wire.Codec.put_string "x")
       with
      | exception Orb.System_exception m ->
          Tutil.check_contains ~what:"oneway reported" m "oneway";
          Tutil.check_contains ~what:"operation named" m "noreply"
      | _ -> Alcotest.fail "expected System_exception");
      (* Untouched operations still work through the proxy. *)
      let d = Orb.Smart.call proxy ~op:"echo" (fun e -> e.Wire.Codec.put_string "y") in
      Alcotest.(check string) "proxy still works" "echo:y" (d.Wire.Codec.get_string ()))

let test_server_connections_gauge () =
  (* Regression: [stats.server_connections] must track LIVE connections —
     an entry that is closed but not yet reaped by its serving thread
     must not count. *)
  with_pair (List.hd configs) (fun ~name:_ ~server ~client:_ ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check int) "idle" 0 (Orb.stats server).Orb.server_connections;
      let c = Orb.create ~transport:"mem" ~host:"local" () in
      Alcotest.(check string) "call" "echo:x" (invoke_string c target ~op:"echo" "x");
      (* The accept loop registers the connection before serving it, so
         after a completed call the gauge reads exactly one. *)
      Alcotest.(check int) "one live" 1 (Orb.stats server).Orb.server_connections;
      Orb.shutdown c;
      (* The disconnect propagates asynchronously; poll until the gauge
         drops. With the is_closed filter this happens as soon as the
         serving thread closes the communicator, reaped or not. *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec settle () =
        let live = (Orb.stats server).Orb.server_connections in
        if live = 0 then 0
        else if Unix.gettimeofday () > deadline then live
        else (
          Thread.delay 0.02;
          settle ())
      in
      Alcotest.(check int) "gauge returns to zero" 0 (settle ()))

(* A client that has been shut down dials nothing: a later call fails at
   once with an error naming the shutdown and opens no connection, and a
   oneway sent from another domain leaves that domain joinable (a cached
   fresh connection's reader thread would keep it from joining). *)
let test_no_dial_after_shutdown () =
  with_pair (List.hd configs) (fun ~name:_ ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "before shutdown" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      Orb.shutdown client;
      let opened = (Orb.stats client).Orb.opened in
      (match invoke_string client target ~op:"echo" "y" with
      | _ -> Alcotest.fail "a call after shutdown was answered"
      | exception Orb.System_exception m ->
          Alcotest.(check bool) ("names the shutdown: " ^ m) true
            (Tutil.contains m "shut down"));
      Alcotest.(check int) "no connection opened" opened (Orb.stats client).Orb.opened;
      Domain.join
        (Domain.spawn (fun () ->
             try
               ignore
                 (Orb.invoke client target ~op:"noreply" ~oneway:true (fun e ->
                      e.Wire.Codec.put_string "late"))
             with Orb.System_exception _ -> ())))

(* A restarted ORB keeps one accept loop: the loop of a closed listener
   exits even when [start] has already opened the next one. *)
let test_restart_keeps_one_accept_loop () =
  let orb =
    Orb.create ~transport:"mem" ~host:"local"
      ~server_policy:{ Orb.default_server_policy with pool = None }
      ()
  in
  Orb.start orb;
  (match Tutil.count_threads () with
  | None -> ()
  | Some one_loop ->
      for _ = 1 to 20 do
        Orb.shutdown orb;
        Orb.start orb
      done;
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec settle () =
        match Tutil.count_threads () with
        | Some n when n > one_loop && Unix.gettimeofday () < deadline ->
            Thread.delay 0.01;
            settle ()
        | n -> n
      in
      Alcotest.(check (option int)) "threads back to one accept loop"
        (Some one_loop)
        (Option.map (max one_loop) (settle ())));
  Orb.shutdown orb

let () =
  Alcotest.run "orb"
    [
      ( "calls",
        [
          Alcotest.test_case "basic calls (all configs)" `Quick test_basic_calls;
          Alcotest.test_case "user exceptions" `Quick test_user_exception;
          Alcotest.test_case "system errors" `Quick test_system_errors;
          Alcotest.test_case "oneway" `Quick test_oneway;
          Alcotest.test_case "interaction trace (Figs. 4-5)" `Quick test_interaction_trace;
        ] );
      ( "caching",
        [
          Alcotest.test_case "skeleton cache" `Quick test_skeleton_cache;
          Alcotest.test_case "named export" `Quick test_named_export;
          Alcotest.test_case "auto oid skips a named one" `Quick
            test_auto_oid_skips_named;
          Alcotest.test_case "locate (GIOP LocateRequest)" `Quick test_locate;
          Alcotest.test_case "reconnect after drop" `Quick test_connection_retry_after_drop;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "crash-restart under retry policy" `Quick
            test_crash_restart_under_retry;
          Alcotest.test_case "server connections bounded" `Quick
            test_server_connection_bound;
          Alcotest.test_case "reply-id mismatch drops connection" `Quick
            test_reply_id_mismatch_drops_connection;
          Alcotest.test_case "smart proxy vs oneway rewrite" `Quick
            test_smart_proxy_oneway_rewrite;
          Alcotest.test_case "server connections gauge" `Quick
            test_server_connections_gauge;
          Alcotest.test_case "no dial after shutdown" `Quick
            test_no_dial_after_shutdown;
          Alcotest.test_case "restart keeps one accept loop" `Quick
            test_restart_keeps_one_accept_loop;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "shared client, many threads" `Quick
            test_shared_client_concurrency;
          Alcotest.test_case "bidirectional references" `Quick test_two_way_references;
        ] );
    ]
