(* Transport tests: the in-memory loopback and real TCP, through the same
   channel interface. *)

let with_pair ~proto f =
  let host = if proto = "tcp" then "127.0.0.1" else "local" in
  let listener = Orb.Transport.listen ~proto ~host ~port:0 in
  let accepted = ref None in
  let t =
    Thread.create
      (fun () -> accepted := Some (listener.Orb.Transport.accept ()))
      ()
  in
  let client =
    Orb.Transport.connect ~proto ~host ~port:listener.Orb.Transport.bound_port
  in
  Thread.join t;
  let server = Option.get !accepted in
  Fun.protect
    ~finally:(fun () ->
      client.Orb.Transport.close ();
      server.Orb.Transport.close ();
      listener.Orb.Transport.shutdown ())
    (fun () -> f ~client ~server)

let protos = [ "mem"; "tcp" ]

let test_line_reading () =
  List.iter
    (fun proto ->
      with_pair ~proto (fun ~client ~server ->
          client.Orb.Transport.write "first line\nsecond";
          client.Orb.Transport.write " line\nthird\n";
          Alcotest.(check string) "l1" "first line" (server.Orb.Transport.read_line ~max:4096);
          Alcotest.(check string) "l2" "second line" (server.Orb.Transport.read_line ~max:4096);
          Alcotest.(check string) "l3" "third" (server.Orb.Transport.read_line ~max:4096)))
    protos

let test_exact_reading () =
  List.iter
    (fun proto ->
      with_pair ~proto (fun ~client ~server ->
          client.Orb.Transport.write "abcdefgh";
          Alcotest.(check string) "3" "abc" (server.Orb.Transport.read_exact 3);
          Alcotest.(check string) "5" "defgh" (server.Orb.Transport.read_exact 5)))
    protos

let test_mixed_line_and_exact () =
  (* GIOP framing interleaves both read modes. *)
  List.iter
    (fun proto ->
      with_pair ~proto (fun ~client ~server ->
          client.Orb.Transport.write "HDR00000003\nxyzrest\n";
          Alcotest.(check string) "header" "HDR00000003"
            (server.Orb.Transport.read_line ~max:4096);
          Alcotest.(check string) "body" "xyz" (server.Orb.Transport.read_exact 3);
          Alcotest.(check string) "next line" "rest" (server.Orb.Transport.read_line ~max:4096)))
    protos

let test_bidirectional () =
  List.iter
    (fun proto ->
      with_pair ~proto (fun ~client ~server ->
          client.Orb.Transport.write "ping\n";
          Alcotest.(check string) "ping" "ping" (server.Orb.Transport.read_line ~max:4096);
          server.Orb.Transport.write "pong\n";
          Alcotest.(check string) "pong" "pong" (client.Orb.Transport.read_line ~max:4096)))
    protos

let test_binary_safety () =
  List.iter
    (fun proto ->
      with_pair ~proto (fun ~client ~server ->
          let blob = String.init 256 Char.chr in
          client.Orb.Transport.write blob;
          Alcotest.(check string) "blob" blob (server.Orb.Transport.read_exact 256)))
    protos

let test_eof_on_close () =
  List.iter
    (fun proto ->
      with_pair ~proto (fun ~client ~server ->
          client.Orb.Transport.write "partial";
          client.Orb.Transport.close ();
          match server.Orb.Transport.read_line ~max:4096 with
          | exception Orb.Transport.Transport_error _ -> ()
          | line -> Alcotest.failf "expected EOF error, read %S" line))
    protos

let test_connect_failure () =
  (match Orb.Transport.connect ~proto:"mem" ~host:"local" ~port:59999 with
  | exception Orb.Transport.Transport_error _ -> ()
  | _ -> Alcotest.fail "mem connect to unbound port succeeded");
  match Orb.Transport.connect ~proto:"nope" ~host:"x" ~port:1 with
  | exception Orb.Transport.Transport_error _ -> ()
  | _ -> Alcotest.fail "unknown protocol accepted"

let test_mem_port_allocation () =
  let l1 = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let l2 = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  Alcotest.(check bool) "distinct ports" true
    (l1.Orb.Transport.bound_port <> l2.Orb.Transport.bound_port);
  (match Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:l1.Orb.Transport.bound_port with
  | exception Orb.Transport.Transport_error _ -> ()
  | _ -> Alcotest.fail "double bind succeeded");
  l1.Orb.Transport.shutdown ();
  l2.Orb.Transport.shutdown ();
  (* After shutdown the port is free again. *)
  let l3 = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:l1.Orb.Transport.bound_port in
  l3.Orb.Transport.shutdown ();
  (* ...but a port-0 listen never hands it out again, so a stale
     reference to the old listener fails instead of reaching a new one. *)
  let l4 = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let old = l4.Orb.Transport.bound_port in
  l4.Orb.Transport.shutdown ();
  let l5 = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  Alcotest.(check bool) "port-0 numbers are not reused" true
    (l5.Orb.Transport.bound_port <> old);
  (match Orb.Transport.connect ~proto:"mem" ~host:"local" ~port:old with
  | exception Orb.Transport.Transport_error _ -> ()
  | _ -> Alcotest.fail "connect to a shut-down port-0 listener succeeded");
  l5.Orb.Transport.shutdown ()

let test_listener_shutdown_wakes_accept () =
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let result = ref `Pending in
  let t =
    Thread.create
      (fun () ->
        match listener.Orb.Transport.accept () with
        | _ -> result := `Accepted
        | exception Orb.Transport.Transport_error _ -> result := `Stopped)
      ()
  in
  Thread.delay 0.05;
  listener.Orb.Transport.shutdown ();
  Thread.join t;
  Alcotest.(check bool) "woken with error" true (!result = `Stopped)

let test_close_wakes_blocked_read () =
  (* Reads have no deadline of their own: a read with nothing coming
     ends when the channel closes, here by the test watchdog. *)
  List.iter
    (fun proto ->
      with_pair ~proto (fun ~client ~server:_ ->
          let t0 = Unix.gettimeofday () in
          (match
             Tutil.with_watchdog ~seconds:0.2 ~what:proto
               ~on_expiry:client.Orb.Transport.close (fun () ->
                 client.Orb.Transport.read_line ~max:4096)
           with
          | exception Failure m -> Tutil.check_contains ~what:proto m "0.2 s"
          | exception e ->
              Alcotest.failf "%s: expected the watchdog's failure, got %s" proto
                (Printexc.to_string e)
          | line -> Alcotest.failf "%s: unexpected line %S" proto line);
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: woken near the bound (%.3fs)" proto elapsed)
            true
            (elapsed >= 0.15 && elapsed <= 0.6)))
    protos

let test_faulty_passthrough () =
  (* With no plan installed, "faulty:mem" behaves exactly like "mem". *)
  Orb.Transport.Fault.clear ();
  with_pair ~proto:"faulty:mem" (fun ~client ~server ->
      client.Orb.Transport.write "ping\n";
      Alcotest.(check string) "ping" "ping" (server.Orb.Transport.read_line ~max:4096);
      server.Orb.Transport.write "pong\n";
      Alcotest.(check string) "pong" "pong" (client.Orb.Transport.read_line ~max:4096);
      Alcotest.(check int) "nothing injected" 0
        (Orb.Transport.Fault.injected_total ()))

let test_faulty_scripted_drop () =
  (* A scripted plan kills the very first server-side read. *)
  Orb.Transport.Fault.set_plan (fun { Orb.Transport.Fault.op; nth; _ } ->
      match op with
      | `Read when nth = 0 -> Some Orb.Transport.Fault.Drop_read
      | _ -> None);
  Fun.protect ~finally:Orb.Transport.Fault.clear (fun () ->
      with_pair ~proto:"faulty:mem" (fun ~client ~server:_ ->
          (match client.Orb.Transport.read_line ~max:4096 with
          | exception Orb.Transport.Transport_error _ -> ()
          | _ -> Alcotest.fail "expected dropped connection");
          Alcotest.(check (list (pair string int))) "ledger"
            [ ("drop_read", 1) ]
            (Orb.Transport.Fault.injected ())))

let test_multiple_connections () =
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let port = listener.Orb.Transport.bound_port in
  let served = ref 0 in
  let server =
    Thread.create
      (fun () ->
        for _ = 1 to 3 do
          let chan = listener.Orb.Transport.accept () in
          let line = chan.Orb.Transport.read_line ~max:4096 in
          chan.Orb.Transport.write (line ^ "!\n");
          incr served;
          chan.Orb.Transport.close ()
        done)
      ()
  in
  List.iter
    (fun name ->
      let c = Orb.Transport.connect ~proto:"mem" ~host:"local" ~port in
      c.Orb.Transport.write (name ^ "\n");
      Alcotest.(check string) name (name ^ "!") (c.Orb.Transport.read_line ~max:4096);
      c.Orb.Transport.close ())
    [ "a"; "b"; "c" ];
  Thread.join server;
  Alcotest.(check int) "served" 3 !served;
  listener.Orb.Transport.shutdown ()

(* ---------------- the receive buffer ---------------- *)

(* Both transports read through one growable buffer per connection that
   starts at 4 KiB; these cases cross every edge of it with HCX frames
   decoded through a communicator, on tcp and on mem. *)

module P = Orb.Protocol

let target =
  Orb.Objref.make ~proto:"tcp" ~host:"127.0.0.1" ~port:1 ~oid:"1"
    ~type_id:"IDL:Test/T:1.0"

let request i payload =
  P.Request
    { P.req_id = i; target; operation = "op"; oneway = false; payload;
      trace_ctx = ""; budget_us = None; nego_offer = "" }

let uvarint n =
  let b = Buffer.create 4 in
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char b (Char.chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.chr !n);
  Buffer.contents b

let hcx_frame msg =
  let body = P.hcx.P.encode_message msg in
  String.make 1 P.hcx_magic ^ uvarint (String.length body) ^ body

let expect_request comm i payload =
  match Orb.Communicator.recv comm with
  | P.Request r ->
      Alcotest.(check int) "request id" i r.P.req_id;
      Alcotest.(check string) "payload" payload r.P.payload
  | _ -> Alcotest.fail "expected a request"

let payload_of i = Printf.sprintf "payload-%d" i

let test_split_frames proto () =
  (* Every byte its own segment: each frame needs many reads. *)
  with_pair ~proto (fun ~client ~server ->
      let comm = Orb.Communicator.wrap P.hcx server in
      let frames = String.concat "" (List.init 3 (fun i -> hcx_frame (request i (payload_of i)))) in
      String.iter (fun c -> client.Orb.Transport.write (String.make 1 c)) frames;
      for i = 0 to 2 do
        expect_request comm i (payload_of i)
      done)

let test_many_frames_one_write proto () =
  (* 300 frames (well past 4 KiB) in one write: reads end mid-frame. *)
  with_pair ~proto (fun ~client ~server ->
      let comm = Orb.Communicator.wrap P.hcx server in
      client.Orb.Transport.write
        (String.concat "" (List.init 300 (fun i -> hcx_frame (request i (payload_of i)))));
      for i = 0 to 299 do
        expect_request comm i (payload_of i)
      done)

let test_large_frame proto () =
  (* A frame 4x the initial buffer, between small ones, then a line of
     the same size and a line past the receive limit. *)
  with_pair ~proto (fun ~client ~server ->
      let comm = Orb.Communicator.wrap P.hcx server in
      let big = String.init (4 * 4096 + 100) (fun i -> Char.chr (i mod 251)) in
      client.Orb.Transport.write
        (hcx_frame (request 1 "small") ^ hcx_frame (request 2 big)
        ^ hcx_frame (request 3 "after"));
      expect_request comm 1 "small";
      expect_request comm 2 big;
      expect_request comm 3 "after";
      let line = String.make (4 * 4096 + 7) 'L' in
      client.Orb.Transport.write (line ^ "\nshort\n");
      Alcotest.(check string) "long line" line
        (server.Orb.Transport.read_line ~max:(String.length line));
      Alcotest.(check string) "next line" "short" (server.Orb.Transport.read_line ~max:100);
      client.Orb.Transport.write (line ^ "\nsynced\n");
      (match server.Orb.Transport.read_line ~max:100 with
      | exception Orb.Transport.Frame_limit _ -> ()
      | l -> Alcotest.failf "over-limit line returned (%d bytes)" (String.length l));
      Alcotest.(check string) "synchronized after the discard" "synced"
        (server.Orb.Transport.read_line ~max:100))

let test_read_allocation proto () =
  (* Request/reply ping-pong over loopback, so every frame arrives in a
     read of its own. A per-read allocation of the receive buffer's size
     would show here as thousands of major-heap words per frame. *)
  with_pair ~proto (fun ~client ~server ->
      let ccomm = Orb.Communicator.wrap P.hcx client in
      let scomm = Orb.Communicator.wrap P.hcx server in
      let rounds = 1000 and warmup = 20 in
      let echo =
        Thread.create
          (fun () ->
            for _ = 1 to warmup + rounds do
              match Orb.Communicator.recv scomm with
              | P.Request r ->
                  Orb.Communicator.send scomm
                    (P.Reply
                       { P.rep_id = r.P.req_id; status = P.Status_ok;
                         payload = r.P.payload; nego_answer = "" })
              | _ -> failwith "expected a request"
            done)
          ()
      in
      let round i =
        Orb.Communicator.send ccomm (request i "0123456789abcdef");
        match Orb.Communicator.recv ccomm with
        | P.Reply r when r.P.rep_id = i -> ()
        | _ -> Alcotest.fail "expected the matching reply"
      in
      for i = 1 to warmup do round i done;
      let before = (Gc.quick_stat ()).Gc.major_words in
      for i = 1 to rounds do round (warmup + i) done;
      let after = (Gc.quick_stat ()).Gc.major_words in
      Thread.join echo;
      let per_frame = (after -. before) /. float_of_int (2 * rounds) in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f major words per frame read (< 1000)" per_frame)
        true (per_frame < 1000.))

let test_header_only_frame chan_proto () =
  (* A peer declares the largest frame the default limit admits, sends
     no body and hangs up. The receive buffer may grow only as body
     bytes arrive, so the failed read allocates a few read-sized chunks,
     not the declared 16 MiB. *)
  let limit = Wire.Codec.default_limits.Wire.Codec.max_frame_bytes in
  List.iter
    (fun (proto, header) ->
      with_pair ~proto:chan_proto (fun ~client ~server ->
          let comm = Orb.Communicator.wrap proto server in
          client.Orb.Transport.write header;
          client.Orb.Transport.close ();
          (* A major slice folds the domain's direct major allocations
             into [major_words]; without one a small count may not show. *)
          let major_words () =
            ignore (Gc.major_slice 0);
            (Gc.quick_stat ()).Gc.major_words
          in
          let before = major_words () in
          (match Orb.Communicator.recv comm with
          | exception Orb.Transport.Transport_error _ -> ()
          | _ -> Alcotest.fail "expected the closed connection to fail the read");
          let words = major_words () -. before in
          let bound = float_of_int (limit / 8 / 16) in
          Alcotest.(check bool)
            (Printf.sprintf "%s over %s: %.0f major words for a %d-byte declared frame (< %.0f)"
               proto.P.name chan_proto words limit bound)
            true (words < bound)))
    [ (P.hcx, String.make 1 P.hcx_magic ^ uvarint limit);
      (Giop.protocol (), Printf.sprintf "%s%08x\n" Giop.magic limit) ]

let receive_buffer proto =
  ( proto ^ " receive buffer",
    [
      Alcotest.test_case "frames in 1-byte writes" `Quick (test_split_frames proto);
      Alcotest.test_case "many frames in one write" `Quick
        (test_many_frames_one_write proto);
      Alcotest.test_case "frame 4x the initial buffer" `Quick (test_large_frame proto);
      Alcotest.test_case "allocation per frame read" `Quick
        (test_read_allocation proto);
      Alcotest.test_case "header-only frame" `Quick (test_header_only_frame proto);
    ] )

let () =
  Alcotest.run "transport"
    [
      ( "channels",
        [
          Alcotest.test_case "line reading" `Quick test_line_reading;
          Alcotest.test_case "exact reading" `Quick test_exact_reading;
          Alcotest.test_case "mixed reads" `Quick test_mixed_line_and_exact;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional;
          Alcotest.test_case "binary safety" `Quick test_binary_safety;
          Alcotest.test_case "EOF on close" `Quick test_eof_on_close;
          Alcotest.test_case "close wakes a blocked read" `Quick
            test_close_wakes_blocked_read;
        ] );
      receive_buffer "tcp";
      receive_buffer "mem";
      ( "fault injection",
        [
          Alcotest.test_case "passthrough" `Quick test_faulty_passthrough;
          Alcotest.test_case "scripted drop" `Quick test_faulty_scripted_drop;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "connect failures" `Quick test_connect_failure;
          Alcotest.test_case "mem port allocation" `Quick test_mem_port_allocation;
          Alcotest.test_case "shutdown wakes accept" `Quick test_listener_shutdown_wakes_accept;
          Alcotest.test_case "sequential connections" `Quick test_multiple_connections;
        ] );
    ]
