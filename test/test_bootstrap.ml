(* Bootstrap naming tests: resolving the first reference from an
   endpoint alone (Section 3.1's bootstrap port). *)

module B = Orb.Bootstrap

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:"IDL:Test/Echo:1.0"
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string (args.Wire.Codec.get_string ()));
    ]

let with_server f =
  let server = Orb.create () in
  Orb.start server;
  let client = Orb.create () in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () -> f ~server ~client)

let test_resolve_from_endpoint_alone () =
  with_server (fun ~server ~client ->
      let _ = B.serve server in
      let echo = Orb.export server (echo_skeleton ()) in
      B.bind server ~name:"echo-service" echo;
      (* The client constructs the bootstrap reference knowing only the
         server's endpoint. *)
      let boot = B.reference ~proto:"mem" ~host:"local" ~port:(Orb.port server) in
      let resolved = B.resolve client boot ~name:"echo-service" in
      Alcotest.(check bool) "same object" true (Orb.Objref.equal resolved echo);
      (* And the resolved reference works. *)
      match Orb.invoke client resolved ~op:"echo" (fun e -> e.Wire.Codec.put_string "hi") with
      | Some d -> Alcotest.(check string) "call through resolved ref" "hi" (d.Wire.Codec.get_string ())
      | None -> Alcotest.fail "no reply")

let test_remote_bind_and_list () =
  with_server (fun ~server ~client ->
      let boot = B.serve server in
      let e1 = Orb.export server (echo_skeleton ()) in
      let e2 = Orb.export server (echo_skeleton ()) in
      (* Remote bind through the wire interface. *)
      ignore
        (Orb.invoke client boot ~op:"bind" (fun e ->
             e.Wire.Codec.put_string "remote-bound";
             Orb.Serial.put_byref e (Some e1)));
      B.bind server ~name:"local-bound" e2;
      Alcotest.(check (list string)) "list" [ "local-bound"; "remote-bound" ]
        (B.list_names client boot);
      let r = B.resolve client boot ~name:"remote-bound" in
      Alcotest.(check bool) "remote-bound resolves" true (Orb.Objref.equal r e1))

let test_unbind_and_missing () =
  with_server (fun ~server ~client ->
      let boot = B.serve server in
      let e1 = Orb.export server (echo_skeleton ()) in
      B.bind server ~name:"gone" e1;
      ignore (B.resolve client boot ~name:"gone");
      B.unbind client boot ~name:"gone";
      (match B.resolve client boot ~name:"gone" with
      | exception Orb.System_exception m ->
          Tutil.check_contains ~what:"unbound error" m "not bound"
      | _ -> Alcotest.fail "expected resolution failure");
      Alcotest.(check (list string)) "empty" [] (B.list_names client boot))

let test_rebind_replaces () =
  with_server (fun ~server ~client ->
      let boot = B.serve server in
      let e1 = Orb.export server (echo_skeleton ()) in
      let e2 = Orb.export server (echo_skeleton ()) in
      B.bind server ~name:"svc" e1;
      B.bind server ~name:"svc" e2;
      Alcotest.(check bool) "latest wins" true
        (Orb.Objref.equal (B.resolve client boot ~name:"svc") e2))

let test_bind_before_serve_fails () =
  let orb = Orb.create () in
  let e = Orb.export orb (echo_skeleton ()) in
  (match B.bind orb ~name:"x" e with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bind before serve accepted");
  Orb.shutdown orb

let test_well_known_reference_shape () =
  let r = B.reference ~proto:"tcp" ~host:"galaxy.nec.com" ~port:1234 in
  Alcotest.(check string) "stringified"
    "@tcp:galaxy.nec.com:1234#bootstrap#IDL:Heidi/Bootstrap:1.0"
    (Orb.Objref.to_string r)

(* Remote binds from four client ORBs at once, while the application
   binds locally: the servant's handlers run on several pool workers,
   and every name must survive. *)
let test_concurrent_binds () =
  with_server (fun ~server ~client:_ ->
      let boot = B.serve server in
      let echo = Orb.export server (echo_skeleton ()) in
      let clients = List.init 4 (fun _ -> Orb.create ()) in
      let remote c k =
        Thread.create
          (fun () ->
            for i = 1 to 100 do
              ignore
                (Orb.invoke c boot ~op:"bind" (fun e ->
                     e.Wire.Codec.put_string (Printf.sprintf "c%d-%d" k i);
                     Orb.Serial.put_byref e (Some echo)))
            done)
          ()
      in
      let threads = List.mapi (fun k c -> remote c k) clients in
      for i = 1 to 100 do
        B.bind server ~name:(Printf.sprintf "local-%d" i) echo
      done;
      List.iter Thread.join threads;
      let names = B.list_names (List.hd clients) boot in
      List.iter Orb.shutdown clients;
      Alcotest.(check int) "every binding kept" 500 (List.length names))

let test_unbind_calls_unbind () =
  with_server (fun ~server ~client ->
      let boot = B.serve server in
      let ops = ref [] in
      Orb.Interceptor.add
        (Orb.server_interceptors server)
        (Orb.Interceptor.make "record" ~on_request:(fun req ->
             ops := req.Orb.Protocol.operation :: !ops;
             req));
      B.bind server ~name:"x" (Orb.export server (echo_skeleton ()));
      B.unbind client boot ~name:"x";
      Alcotest.(check (list string)) "operations called" [ "unbind" ] !ops;
      Alcotest.(check (list string)) "unbound" [] (B.list_names client boot))

(* A client interceptor that rewrites a call to oneway leaves nothing to
   decode: the caller gets a System_exception naming the operation. *)
let test_oneway_rewrite () =
  with_server (fun ~server ~client ->
      let boot = B.serve server in
      Orb.Interceptor.add
        (Orb.client_interceptors client)
        (Orb.Interceptor.make "force-oneway" ~on_request:(fun req ->
             { req with Orb.Protocol.oneway = true }));
      let check what f =
        match f () with
        | exception Orb.System_exception m ->
            Tutil.check_contains ~what m "oneway";
            Tutil.check_contains ~what m what
        | _ -> Alcotest.failf "%s: expected a System_exception" what
      in
      check "resolve" (fun () -> ignore (B.resolve client boot ~name:"x"));
      check "list" (fun () -> ignore (B.list_names client boot)))

let () =
  Alcotest.run "bootstrap"
    [
      ( "naming",
        [
          Alcotest.test_case "resolve from endpoint alone" `Quick
            test_resolve_from_endpoint_alone;
          Alcotest.test_case "remote bind and list" `Quick test_remote_bind_and_list;
          Alcotest.test_case "unbind and missing names" `Quick test_unbind_and_missing;
          Alcotest.test_case "rebind replaces" `Quick test_rebind_replaces;
          Alcotest.test_case "bind before serve" `Quick test_bind_before_serve_fails;
          Alcotest.test_case "well-known reference shape" `Quick
            test_well_known_reference_shape;
          Alcotest.test_case "concurrent binds" `Quick test_concurrent_binds;
          Alcotest.test_case "unbind calls unbind" `Quick test_unbind_calls_unbind;
          Alcotest.test_case "oneway rewrite is diagnosable" `Quick test_oneway_rewrite;
        ] );
    ]
