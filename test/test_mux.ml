(* Client connection-multiplexing tests: the per-connection reply
   demultiplexer (DESIGN.md section 9). N threads share one cached
   connection; replies are correlated by request id; connection death
   wakes every waiter with a retry-classifiable error; [max_in_flight =
   1] is the same demux with one slot. *)

let echo_type = "IDL:Test/Echo:1.0"

let echo_skeleton ?(noted = Atomic.make 0) () =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ()));
      ("sleepy", fun args results ->
          Thread.delay (float_of_int (args.Wire.Codec.get_long ()) /. 1000.);
          results.Wire.Codec.put_bool true);
      ("note", fun _args _results -> Atomic.incr noted);
    ]

(* The default pool (one worker per core, 2 to 8) caps server-side
   concurrency below some of the thread counts used here; a wider pool
   keeps the server out of the way so the tests observe the CLIENT's
   connection behaviour. *)
let wide_pool =
  { Orb.default_server_policy with
    pool =
      Some
        (* Nap servants, not compute: systhreads overlap the sleeps
           without needing 24 domains. *)
        {
          Orb.Pool.workers = 24;
          queue_capacity = 64;
          admission = Orb.Pool.Reject;
          backend = Orb.Pool.Systhreads;
        }
  }

let eventually ?(timeout = 5.0) ?(msg = "condition") cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    if cond () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Thread.delay 0.005;
      wait ()
    end
  in
  wait ()

let mk_pair ?(protocol = Orb.Protocol.text) ?(transport = "mem")
    ?(host = "local") ?mux ?call_timeout () =
  let server =
    Orb.create ~protocol ~transport ~host ~server_policy:wide_pool ()
  in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let client =
    Orb.create ~protocol ~transport ~host ?mux ?call_timeout
      ~retry:Orb.Retry.none ()
  in
  (server, client, target)

(* ---------------- pipelining over one connection ---------------- *)

let test_calls_pipeline () =
  (* 8 threads, one endpoint, 120 ms of server-side sleep each. Over a
     serialized connection this takes >= 8 x 120 ms; with the demux the
     sleeps overlap. Assertions: everything succeeds, exactly ONE
     connection was opened, more than one call was observed in flight,
     and the wall clock proves actual overlap. *)
  let server, client, target = mk_pair () in
  let n = 8 in
  let ok = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init n (fun _ ->
        Thread.create
          (fun () ->
            match
              Orb.invoke client target ~op:"sleepy" (fun e ->
                  e.Wire.Codec.put_long 120)
            with
            | Some d -> if d.Wire.Codec.get_bool () then Atomic.incr ok
            | None -> ())
          ())
  in
  (* While the calls are in flight, the live gauge must show overlap. *)
  eventually ~msg:"in-flight > 1 observed" (fun () ->
      (Orb.stats client).Orb.mux_in_flight > 1);
  List.iter Thread.join threads;
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all calls succeeded" n (Atomic.get ok);
  Alcotest.(check int) "one shared connection" 1 (Orb.connections_opened client);
  let st = Orb.stats client in
  Alcotest.(check bool) "peak in-flight > 1" true (st.Orb.mux_peak_in_flight > 1);
  Alcotest.(check int) "nothing left in flight" 0 st.Orb.mux_in_flight;
  (* Serialized floor is 8 x 120 ms = 0.96 s; overlapped calls must land
     well under it even on a loaded machine. *)
  Alcotest.(check bool)
    (Printf.sprintf "calls overlapped (took %.3fs)" took)
    true (took < 0.7);
  Orb.shutdown client;
  Orb.shutdown server

let test_reply_correlation () =
  (* Many threads, distinct payloads, many calls each: every reply must
     carry ITS request's payload even though replies complete out of
     order on the shared stream. *)
  let server, client, target = mk_pair () in
  let n_threads = 6 and calls_each = 25 in
  let mismatches = Atomic.make 0 and ok = Atomic.make 0 in
  let threads =
    List.init n_threads (fun tid ->
        Thread.create
          (fun () ->
            for i = 1 to calls_each do
              let payload = Printf.sprintf "t%d-c%d" tid i in
              match
                Orb.invoke client target ~op:"echo" (fun e ->
                    e.Wire.Codec.put_string payload)
              with
              | Some d ->
                  if d.Wire.Codec.get_string () = "echo:" ^ payload then
                    Atomic.incr ok
                  else Atomic.incr mismatches
              | None -> Atomic.incr mismatches
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "no cross-delivered replies" 0 (Atomic.get mismatches);
  Alcotest.(check int) "every call answered" (n_threads * calls_each)
    (Atomic.get ok);
  Alcotest.(check int) "one shared connection" 1 (Orb.connections_opened client);
  Orb.shutdown client;
  Orb.shutdown server

let test_in_flight_cap () =
  (* [max_in_flight = 2] with 4 concurrent slow calls: the two excess
     callers park until a slot frees, everyone completes, and the peak
     never exceeds the cap. *)
  let server, client, target =
    mk_pair ~mux:{ Orb.max_in_flight = 2 } ()
  in
  let ok = Atomic.make 0 in
  let threads =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            match
              Orb.invoke client target ~op:"sleepy" (fun e ->
                  e.Wire.Codec.put_long 60)
            with
            | Some _ -> Atomic.incr ok
            | None -> ())
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all admitted eventually" 4 (Atomic.get ok);
  let st = Orb.stats client in
  Alcotest.(check int) "peak pinned at the cap" 2 st.Orb.mux_peak_in_flight;
  Orb.shutdown client;
  Orb.shutdown server

let test_oneway_under_mux () =
  (* Oneway calls never register a waiter: they must not consume
     in-flight slots or leave the pending table dirty. *)
  let noted = Atomic.make 0 in
  let server = Orb.create ~server_policy:wide_pool () in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ~noted ()) in
  let client = Orb.create ~retry:Orb.Retry.none () in
  for _ = 1 to 10 do
    match Orb.invoke client target ~op:"note" ~oneway:true (fun _ -> ()) with
    | None -> ()
    | Some _ -> Alcotest.fail "oneway call returned a payload"
  done;
  eventually ~msg:"oneways dispatched" (fun () -> Atomic.get noted = 10);
  Alcotest.(check int) "no waiters leaked" 0 (Orb.stats client).Orb.mux_in_flight;
  (* The stream is still healthy for two-way traffic. *)
  (match Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_string "x") with
  | Some d -> Alcotest.(check string) "two-way after oneways" "echo:x"
                (d.Wire.Codec.get_string ())
  | None -> Alcotest.fail "expected a reply");
  Orb.shutdown client;
  Orb.shutdown server

(* ---------------- one slot (max_in_flight = 1) -------------- *)

let test_serialized_interop () =
  (* The [max_in_flight = 1] client runs the same demux with one slot:
     correct answers, one connection, never more than one two-way call
     in flight, and nothing left registered afterwards. *)
  let server, client, target = mk_pair ~mux:{ Orb.max_in_flight = 1 } () in
  let n_threads = 4 and calls_each = 10 in
  let ok = Atomic.make 0 in
  let threads =
    List.init n_threads (fun tid ->
        Thread.create
          (fun () ->
            for i = 1 to calls_each do
              let payload = Printf.sprintf "s%d-%d" tid i in
              match
                Orb.invoke client target ~op:"echo" (fun e ->
                    e.Wire.Codec.put_string payload)
              with
              | Some d when d.Wire.Codec.get_string () = "echo:" ^ payload ->
                  Atomic.incr ok
              | _ -> ()
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all serialized calls correct" (n_threads * calls_each)
    (Atomic.get ok);
  Alcotest.(check int) "one shared connection" 1 (Orb.connections_opened client);
  let st = Orb.stats client in
  Alcotest.(check int) "one call in flight at most" 1 st.Orb.mux_peak_in_flight;
  Alcotest.(check int) "nothing left in flight" 0 st.Orb.mux_in_flight;
  Orb.shutdown client;
  Orb.shutdown server

(* ---------------- failure semantics ---------------- *)

let test_crash_mid_flight_wakes_all () =
  (* 6 calls parked (no deadline: true condvar waits) when the server
     force-closes: every waiter must wake promptly with an error — no
     reply, no hang, nothing still registered afterwards. *)
  let server, client, target = mk_pair () in
  let n = 6 in
  let failed = Atomic.make 0 and replied = Atomic.make 0 in
  let done_ = Atomic.make 0 in
  let threads =
    List.init n (fun _ ->
        Thread.create
          (fun () ->
            (match
               Orb.invoke client target ~op:"sleepy" (fun e ->
                   e.Wire.Codec.put_long 3000)
             with
            | Some _ | None -> Atomic.incr replied
            | exception _ -> Atomic.incr failed);
            Atomic.incr done_)
          ())
  in
  eventually ~msg:"all calls in flight" (fun () ->
      (Orb.stats client).Orb.mux_in_flight = n);
  let t0 = Unix.gettimeofday () in
  Orb.shutdown server;
  (* Every waiter must fail long before the 3 s of server-side sleep the
     replies would have needed. *)
  eventually ~timeout:2.0 ~msg:"all waiters woke" (fun () ->
      Atomic.get done_ = n);
  let took = Unix.gettimeofday () -. t0 in
  List.iter Thread.join threads;
  Alcotest.(check int) "every waiter failed" n (Atomic.get failed);
  Alcotest.(check int) "no phantom replies" 0 (Atomic.get replied);
  Alcotest.(check bool)
    (Printf.sprintf "woke promptly (%.3fs)" took)
    true (took < 1.5);
  Alcotest.(check int) "pending table empty" 0 (Orb.stats client).Orb.mux_in_flight;
  Orb.shutdown client

let test_deadline_kills_connection () =
  (* A timed-out waiter abandons a reply the stream still owes; the
     demux kills the whole connection. The timed-out call sees Timeout
     (never retried); a collateral waiter sees a TRANSIENT transport
     error (retry-classifiable); the next call transparently redials. *)
  let server, client, target = mk_pair () in
  (* Warm the connection so both calls share one cached stream. *)
  ignore (Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_string "w"));
  let collateral = ref `Pending in
  let waiter =
    Thread.create
      (fun () ->
        collateral :=
          match
            Orb.invoke client target ~op:"sleepy" (fun e ->
                e.Wire.Codec.put_long 600)
          with
          | Some _ | None -> `Replied
          | exception e -> `Failed e)
      ()
  in
  eventually ~msg:"collateral call in flight" (fun () ->
      (Orb.stats client).Orb.mux_in_flight = 1);
  (match
     Orb.invoke client target ~op:"sleepy" ~timeout:0.1 (fun e ->
         e.Wire.Codec.put_long 600)
   with
  | Some _ | None -> Alcotest.fail "expected the short-deadline call to time out"
  | exception Orb.Transport.Timeout _ -> ()
  | exception e ->
      Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e));
  Thread.join waiter;
  (match !collateral with
  | `Failed e ->
      Alcotest.(check bool)
        (Printf.sprintf "collateral error is transient (%s)"
           (Printexc.to_string e))
        true
        (Orb.Retry.classify e = Orb.Retry.Transient)
  | `Replied -> Alcotest.fail "collateral waiter got a reply off a dead stream"
  | `Pending -> Alcotest.fail "collateral waiter never finished");
  (* The poisoned connection left the cache: the next call redials. *)
  (match Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_string "y") with
  | Some d -> Alcotest.(check string) "fresh connection works" "echo:y"
                (d.Wire.Codec.get_string ())
  | None -> Alcotest.fail "expected a reply after redial");
  Alcotest.(check int) "a second connection was opened" 2
    (Orb.connections_opened client);
  Orb.shutdown client;
  Orb.shutdown server

let test_admission_timeout_keeps_connection () =
  (* Slow calls hold every in-flight slot; a caller whose deadline
     passes while it waits for a slot fails with the admission timeout.
     It sent nothing, so the server never sees it, and the connection
     stays cached and usable. At one slot too: the queued caller must
     not send its expired request once the slot frees. *)
  List.iter
    (fun limit ->
      let server, client, target =
        mk_pair ~mux:{ Orb.max_in_flight = limit } ()
      in
      let answered = Atomic.make 0 in
      let holders =
        List.init limit (fun _ ->
            Thread.create
              (fun () ->
                match
                  Orb.invoke client target ~op:"sleepy" (fun e ->
                      e.Wire.Codec.put_long 200)
                with
                | Some _ -> Atomic.incr answered
                | None -> ())
              ())
      in
      eventually ~msg:"every slot held" (fun () ->
          (Orb.stats server).Orb.pool_active = limit);
      (match
         Orb.invoke client target ~op:"sleepy" ~timeout:0.05 (fun e ->
             e.Wire.Codec.put_long 200)
       with
      | Some _ | None ->
          Alcotest.failf "limit %d: expected an admission timeout" limit
      | exception Orb.Transport.Timeout m ->
          Alcotest.(check bool)
            (Printf.sprintf "limit %d: timed out waiting for a slot (%s)" limit
               m)
            true
            (Tutil.contains m "in-flight slot")
      | exception e ->
          Alcotest.failf "limit %d: expected Timeout, got %s" limit
            (Printexc.to_string e));
      List.iter Thread.join holders;
      Alcotest.(check int) "slot holders answered" limit (Atomic.get answered);
      Alcotest.(check int) "connection kept" 1 (Orb.connections_opened client);
      (match
         Orb.invoke client target ~op:"echo" (fun e ->
             e.Wire.Codec.put_string "after")
       with
      | Some d ->
          Alcotest.(check string) "next call works" "echo:after"
            (d.Wire.Codec.get_string ())
      | None -> Alcotest.fail "expected a reply");
      Alcotest.(check int) "on the same connection" 1
        (Orb.connections_opened client);
      Alcotest.(check int) "the timed-out call never reached the server"
        (limit + 1)
        (Orb.requests_served server);
      Orb.shutdown client;
      Orb.shutdown server)
    [ 2; 1 ]

let test_wrong_kind_reply_drops_connection () =
  (* A scripted peer answers a request with a Locate_reply. The demux
     hands a reply only to a waiter of its kind, so it kills the
     connection instead of handing the call a locate answer. *)
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let port = listener.Orb.Transport.bound_port in
  let closed_by_client = Atomic.make false in
  let peer =
    Thread.create
      (fun () ->
        let comm =
          Orb.Communicator.wrap Orb.Protocol.text (listener.Orb.Transport.accept ())
        in
        (match Orb.Communicator.recv comm with
        | Orb.Protocol.Request r ->
            Orb.Communicator.send comm
              (Orb.Protocol.Locate_reply
                 { rep_id = r.Orb.Protocol.req_id; found = true; forward = None })
        | _ -> ());
        (try ignore (Orb.Communicator.recv comm)
         with _ -> Atomic.set closed_by_client true);
        Orb.Communicator.close comm)
      ()
  in
  let client = Orb.create ~retry:Orb.Retry.none () in
  let target =
    Orb.Objref.make ~proto:"mem" ~host:"local" ~port ~oid:"x" ~type_id:echo_type
  in
  (match
     Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_string "a")
   with
  | exception Orb.System_exception m ->
      Alcotest.(check bool)
        (Printf.sprintf "kind mismatch reported (%s)" m)
        true
        (Tutil.contains m "different kind")
  | _ -> Alcotest.fail "a locate answer reached a request");
  eventually ~msg:"the client to drop the connection" (fun () ->
      Atomic.get closed_by_client);
  Thread.join peer;
  Alcotest.(check int) "nothing left in flight" 0 (Orb.stats client).Orb.mux_in_flight;
  Orb.shutdown client;
  listener.Orb.Transport.shutdown ()

(* ---------------- other protocols and transports ---------------- *)

let test_giop_under_mux () =
  let protocol = Giop.protocol () in
  let server, client, target = mk_pair ~protocol () in
  let ok = Atomic.make 0 in
  let threads =
    List.init 4 (fun tid ->
        Thread.create
          (fun () ->
            for i = 1 to 10 do
              let payload = Printf.sprintf "g%d-%d" tid i in
              match
                Orb.invoke client target ~op:"echo" (fun e ->
                    e.Wire.Codec.put_string payload)
              with
              | Some d when d.Wire.Codec.get_string () = "echo:" ^ payload ->
                  Atomic.incr ok
              | _ -> ()
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "giop replies all correlated" 40 (Atomic.get ok);
  Alcotest.(check int) "one shared connection" 1 (Orb.connections_opened client);
  Orb.shutdown client;
  Orb.shutdown server

let test_tcp_pipelining () =
  let server, client, target = mk_pair ~transport:"tcp" ~host:"127.0.0.1" () in
  let n = 4 in
  let ok = Atomic.make 0 in
  let threads =
    List.init n (fun _ ->
        Thread.create
          (fun () ->
            match
              Orb.invoke client target ~op:"sleepy" (fun e ->
                  e.Wire.Codec.put_long 80)
            with
            | Some _ -> Atomic.incr ok
            | None -> ())
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all tcp calls succeeded" n (Atomic.get ok);
  Alcotest.(check int) "one shared tcp connection" 1
    (Orb.connections_opened client);
  Alcotest.(check bool) "tcp calls pipelined" true
    ((Orb.stats client).Orb.mux_peak_in_flight > 1);
  Orb.shutdown client;
  Orb.shutdown server

let () =
  Alcotest.run "mux"
    [
      ( "pipelining",
        [
          Alcotest.test_case "calls pipeline over one connection" `Quick
            test_calls_pipeline;
          Alcotest.test_case "reply correlation" `Quick test_reply_correlation;
          Alcotest.test_case "in-flight cap" `Quick test_in_flight_cap;
          Alcotest.test_case "oneway under mux" `Quick test_oneway_under_mux;
        ] );
      ( "interop",
        [
          Alcotest.test_case "max_in_flight=1 serialized path" `Quick
            test_serialized_interop;
        ] );
      ( "failure",
        [
          Alcotest.test_case "crash mid-flight wakes all waiters" `Quick
            test_crash_mid_flight_wakes_all;
          Alcotest.test_case "deadline kills the connection" `Quick
            test_deadline_kills_connection;
          Alcotest.test_case "admission timeout keeps the connection" `Quick
            test_admission_timeout_keeps_connection;
          Alcotest.test_case "wrong-kind reply drops the connection" `Quick
            test_wrong_kind_reply_drops_connection;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "giop under mux" `Quick test_giop_under_mux;
          Alcotest.test_case "tcp pipelining" `Quick test_tcp_pipelining;
        ] );
    ]
