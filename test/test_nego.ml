(* End-to-end codec negotiation: client and server ORBs converging on a
   compact encoding over a live connection, falling back when the peer
   cannot follow, and judging version skew with the IDL-evolution
   verdict (V301-V304) as the compatibility predicate. *)

module P = Orb.Protocol

let echo_type = "IDL:Test/Echo:1.0"

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ()));
      ("noreply", fun args _ -> ignore (args.Wire.Codec.get_string ()));
      ("sleepy", fun args results ->
          Thread.delay (float_of_int (args.Wire.Codec.get_long ()) /. 1000.);
          results.Wire.Codec.put_bool true);
    ]

let invoke_string client target ~op s =
  match Orb.invoke client target ~op (fun e -> e.Wire.Codec.put_string s) with
  | Some d -> d.Wire.Codec.get_string ()
  | None -> Alcotest.fail "expected a reply"

(* A second wire version of the compact codec, as a newer deployment
   would ship it: same implementation, bumped negotiation version. *)
let hcx_v2 =
  P.generic ~name:"hcx" ~version:2
    ~framing:(P.Varint_prefixed { magic = P.hcx_magic })
    Wire.Hcx_codec.codec

let with_pair ?(transport = "mem") ?(host = "local") ~server_codecs
    ?server_compat ~client_codecs ?client_compat ?mux f =
  let server =
    Orb.create ~transport ~host ~codecs:server_codecs
      ?codec_compat:server_compat ()
  in
  Orb.start server;
  let client =
    Orb.create ~transport ~host ~codecs:client_codecs
      ?codec_compat:client_compat ?mux ()
  in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () -> f ~server ~client)

let check_stats name orb ~nego ~fallback =
  let st = Orb.stats orb in
  Alcotest.(check int) (name ^ " negotiations") nego st.Orb.codec_negotiations;
  Alcotest.(check int) (name ^ " fallbacks") fallback st.Orb.codec_fallbacks

let test_converge_on_hcx () =
  List.iter
    (fun (transport, host) ->
      with_pair ~transport ~host ~server_codecs:[ P.hcx ]
        ~client_codecs:[ P.hcx ] (fun ~server ~client ->
          let target = Orb.export server (echo_skeleton ()) in
          (* The first call carries the offer; every later call rides
             the negotiated encoding on the same connection. *)
          for i = 1 to 20 do
            Alcotest.(check string) (transport ^ " call")
              (Printf.sprintf "echo:%d" i)
              (invoke_string client target ~op:"echo" (string_of_int i))
          done;
          Alcotest.(check int) (transport ^ " one connection") 1
            (Orb.connections_opened client);
          check_stats (transport ^ " client") client ~nego:1 ~fallback:0;
          check_stats (transport ^ " server") server ~nego:1 ~fallback:0))
    [ ("mem", "local"); ("tcp", "127.0.0.1") ]

let test_concurrent_first_calls_negotiate_once () =
  (* Eight threads race the fresh connection: exactly one carries the
     offer, the rest hold behind the gate, and nothing is misframed —
     under the default mux and at one in-flight slot. *)
  List.iter
    (fun mux ->
      with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ] ?mux
        (fun ~server ~client ->
          let target = Orb.export server (echo_skeleton ()) in
          let results = Array.make 8 "" in
          let threads =
            List.init 8 (fun i ->
                Thread.create
                  (fun () ->
                    results.(i) <-
                      invoke_string client target ~op:"echo" (string_of_int i))
                  ())
          in
          List.iter Thread.join threads;
          Array.iteri
            (fun i got ->
              Alcotest.(check string) "racing call"
                (Printf.sprintf "echo:%d" i) got)
            results;
          check_stats "client" client ~nego:1 ~fallback:0;
          check_stats "server" server ~nego:1 ~fallback:0))
    [ None; Some { Orb.max_in_flight = 1 } ]

let test_timeout_behind_offer_keeps_connection () =
  (* The offering first call is slow; a concurrent call whose deadline
     passes while it holds behind the offer fails with the negotiation
     timeout. It sent nothing: the connection survives and negotiates
     exactly once. *)
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      let offered = ref false in
      let offering =
        Thread.create
          (fun () ->
            match
              Orb.invoke client target ~op:"sleepy" (fun e ->
                  e.Wire.Codec.put_long 200)
            with
            | Some d -> offered := d.Wire.Codec.get_bool ()
            | None -> ())
          ()
      in
      let deadline = Unix.gettimeofday () +. 5. in
      while
        (Orb.stats server).Orb.pool_active = 0
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.005
      done;
      (match
         Orb.invoke client target ~op:"echo" ~timeout:0.05 (fun e ->
             e.Wire.Codec.put_string "late")
       with
      | Some _ | None -> Alcotest.fail "expected a negotiation timeout"
      | exception Orb.Transport.Timeout m ->
          Alcotest.(check bool)
            (Printf.sprintf "timed out behind the offer (%s)" m)
            true
            (Tutil.contains m "codec negotiation")
      | exception e ->
          Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e));
      Thread.join offering;
      Alcotest.(check bool) "offering call answered" true !offered;
      Alcotest.(check string) "next call works" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      Alcotest.(check int) "one connection" 1 (Orb.connections_opened client);
      check_stats "client" client ~nego:1 ~fallback:0)

(* Payload probes: does a payload hold one string in this codec? *)
let string_in (codec : Wire.Codec.t) payload =
  match (codec.Wire.Codec.decoder payload).Wire.Codec.get_string () with
  | s -> Some s
  | exception _ -> None

let text_string = string_in Wire.Text_codec.codec
let hcx_string = string_in Wire.Hcx_codec.codec

let test_negotiated_payloads () =
  (* Request payloads as the server's dispatch path sees them, reply
     payloads as the client's reply chain sees them: the offering call
     travels in the base protocol, every later call in the negotiated
     one — arguments and results, not only the envelope. A server with
     no codecs to offer keeps the whole conversation in text. *)
  let capture ~server ~client =
    let reqs = ref [] and reps = ref [] in
    Orb.Interceptor.add
      (Orb.server_interceptors server)
      (Orb.Interceptor.make "req-payloads" ~on_request:(fun req ->
           reqs := req.P.payload :: !reqs;
           req));
    Orb.Interceptor.add
      (Orb.client_interceptors client)
      (Orb.Interceptor.make "rep-payloads" ~on_reply:(fun _ rep ->
           reps := rep.P.payload :: !reps;
           rep));
    let target = Orb.export server (echo_skeleton ()) in
    for i = 1 to 3 do
      Alcotest.(check string) "call" (Printf.sprintf "echo:%d" i)
        (invoke_string client target ~op:"echo" (string_of_int i))
    done;
    (List.rev !reqs, List.rev !reps)
  in
  let check_text what i req rep =
    Alcotest.(check (option string)) (what ^ " request is text")
      (Some (string_of_int i)) (text_string req);
    Alcotest.(check (option string)) (what ^ " reply is text")
      (Some (Printf.sprintf "echo:%d" i)) (text_string rep)
  in
  List.iter
    (fun (transport, host) ->
      with_pair ~transport ~host ~server_codecs:[ P.hcx ]
        ~client_codecs:[ P.hcx ] (fun ~server ~client ->
          let reqs, reps = capture ~server ~client in
          Alcotest.(check int) (transport ^ " requests seen") 3 (List.length reqs);
          Alcotest.(check int) (transport ^ " replies seen") 3 (List.length reps);
          List.iteri
            (fun k (req, rep) ->
              let i = k + 1 in
              let what = Printf.sprintf "%s call %d" transport i in
              if i = 1 then check_text what i req rep
              else begin
                Alcotest.(check (option string)) (what ^ " request is hcx")
                  (Some (string_of_int i)) (hcx_string req);
                Alcotest.(check (option string)) (what ^ " reply is hcx")
                  (Some (Printf.sprintf "echo:%d" i)) (hcx_string rep);
                Alcotest.(check (option string)) (what ^ " request is not text")
                  None (text_string req);
                Alcotest.(check (option string)) (what ^ " reply is not text")
                  None (text_string rep)
              end)
            (List.combine reqs reps);
          check_stats (transport ^ " client") client ~nego:1 ~fallback:0);
      with_pair ~transport ~host ~server_codecs:[] ~client_codecs:[ P.hcx ]
        (fun ~server ~client ->
          let reqs, reps = capture ~server ~client in
          List.iteri
            (fun k (req, rep) ->
              check_text
                (Printf.sprintf "%s fallback call %d" transport (k + 1))
                (k + 1) req rep)
            (List.combine reqs reps);
          check_stats (transport ^ " client") client ~nego:0 ~fallback:1))
    [ ("mem", "local"); ("tcp", "127.0.0.1") ]

let test_user_exception_codec () =
  (* A declared exception's members travel in the frame's codec, and
     [Remote_exception.codec] names it: text on the offering call, hcx
     after the switch. *)
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let skel =
        Orb.Skeleton.create ~type_id:echo_type
          [
            ( "fail",
              fun args _ ->
                let n = args.Wire.Codec.get_long () in
                raise
                  (Orb.Skeleton.User_exception
                     {
                       repo_id = "IDL:Test/Busy:1.0";
                       encode =
                         (fun e ->
                           e.Wire.Codec.put_string "busy";
                           e.Wire.Codec.put_long (n * 10));
                     }) );
          ]
      in
      let target = Orb.export server skel in
      List.iter
        (fun (n, codec) ->
          match
            Orb.invoke client target ~op:"fail" (fun e -> e.Wire.Codec.put_long n)
          with
          | exception Orb.Remote_exception { repo_id; payload; codec = c } ->
              Alcotest.(check string) "repo id" "IDL:Test/Busy:1.0" repo_id;
              Alcotest.(check string) "exception codec" codec c.Wire.Codec.name;
              let d = c.Wire.Codec.decoder payload in
              Alcotest.(check string) "member 1" "busy" (d.Wire.Codec.get_string ());
              Alcotest.(check int) "member 2" (n * 10) (d.Wire.Codec.get_long ())
          | _ -> Alcotest.fail "expected Remote_exception")
        [ (1, "text"); (2, "hcx"); (3, "hcx") ];
      check_stats "client" client ~nego:1 ~fallback:0)

let test_smart_proxy_across_switch () =
  (* The proxy's first call is the offering call, so its result is
     cached from the text era; hits on it after the switch, and misses
     and hits on results that arrived in hcx, all decode right. *)
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      let proxy = Orb.smart_proxy client target in
      let echo s =
        (Orb.Smart.call proxy ~op:"echo" (fun e -> e.Wire.Codec.put_string s))
          .Wire.Codec.get_string ()
      in
      Alcotest.(check string) "miss, text era" "echo:a" (echo "a");
      check_stats "client" client ~nego:1 ~fallback:0;
      Alcotest.(check string) "hit on a text-era result" "echo:a" (echo "a");
      Alcotest.(check string) "miss after the switch" "echo:b" (echo "b");
      Alcotest.(check string) "hit on an hcx result" "echo:b" (echo "b");
      Alcotest.(check string) "text-era result again" "echo:a" (echo "a");
      Alcotest.(check int) "hits" 3 (Orb.Smart.hits proxy);
      Alcotest.(check int) "misses" 2 (Orb.Smart.misses proxy))

let test_marshal_failure_keeps_offer () =
  (* The arguments are marshalled after the call took the connection's
     offer. A marshaller that raises sends nothing: the caller sees its
     exception, and the offer passes to the next call, which
     negotiates. *)
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      (match Orb.invoke client target ~op:"echo" (fun _ -> failwith "bad args") with
      | exception Failure m -> Alcotest.(check string) "marshal error" "bad args" m
      | _ -> Alcotest.fail "expected the marshaller's exception");
      check_stats "client after the failure" client ~nego:0 ~fallback:0;
      Alcotest.(check string) "next call" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      Alcotest.(check string) "and the one after" "echo:y"
        (invoke_string client target ~op:"echo" "y");
      check_stats "client" client ~nego:1 ~fallback:0;
      check_stats "server" server ~nego:1 ~fallback:0;
      Alcotest.(check int) "one connection" 1 (Orb.connections_opened client))

let test_oneways_racing_the_offer () =
  (* Oneways from another domain race the first two-way call on fresh
     connections. A oneway admitted before the offer goes out in the
     base protocol, so the offer must wait until it is on the wire: the
     server decodes every frame after the offer in the negotiated codec,
     and a text frame there would close the connection under the
     offering call. The 20 KB payload widens the window between a
     oneway's admission and its send, where it is marshalled. *)
  let server = Orb.create ~codecs:[ P.hcx ] () in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let big = String.make 20_000 'x' in
  Fun.protect
    ~finally:(fun () -> Orb.shutdown server)
    (fun () ->
      for run = 1 to 100 do
        let client = Orb.create ~codecs:[ P.hcx ] ~call_timeout:5.0 () in
        let go = Atomic.make false and finished = Atomic.make false in
        let oneways =
          Domain.spawn (fun () ->
              while not (Atomic.get go) do Domain.cpu_relax () done;
              Fun.protect
                ~finally:(fun () -> Atomic.set finished true)
                (fun () ->
                  for _ = 1 to 3 do
                    ignore
                      (Orb.invoke client target ~op:"noreply" ~oneway:true
                         (fun e -> e.Wire.Codec.put_string big))
                  done))
        in
        Atomic.set go true;
        let result =
          match
            for i = 1 to 3 do
              Alcotest.(check string) "two-way" (Printf.sprintf "echo:%d" i)
                (invoke_string client target ~op:"echo" (string_of_int i))
            done
          with
          | () -> Ok ()
          | exception e -> Error e
        in
        (* The oneways' domain may own the connection's reader thread,
           which ends only when the connection closes: close it before
           joining the domain. *)
        while not (Atomic.get finished) do Thread.delay 0.001 done;
        Orb.shutdown client;
        Domain.join oneways;
        match result with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "run %d: offering call failed: %s" run
              (Printexc.to_string e)
      done)

let test_oneway_does_not_offer () =
  (* Oneways cannot carry an offer (there is no reply to answer on);
     the first two-way call negotiates instead. *)
  with_pair ~server_codecs:[ P.hcx ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      (match
         Orb.invoke client target ~op:"noreply" ~oneway:true (fun e ->
             e.Wire.Codec.put_string "fire-and-forget")
       with
      | None -> ()
      | Some _ -> Alcotest.fail "oneway returned a decoder");
      check_stats "client after oneway" client ~nego:0 ~fallback:0;
      Alcotest.(check string) "two-way negotiates" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:1 ~fallback:0;
      ignore server)

let test_server_without_codecs_falls_back () =
  (* A negotiation-aware server with nothing to offer: the reply has no
     answer slot, the client counts a fallback and stays on base. *)
  with_pair ~server_codecs:[] ~client_codecs:[ P.hcx ] (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call works on base" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      Alcotest.(check string) "later calls too" "echo:y"
        (invoke_string client target ~op:"echo" "y");
      check_stats "client" client ~nego:0 ~fallback:1;
      check_stats "server" server ~nego:0 ~fallback:0)

let test_no_common_codec_falls_back () =
  with_pair ~server_codecs:[ Giop.protocol () ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call works on base" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:0 ~fallback:1;
      check_stats "server" server ~nego:0 ~fallback:1)

let test_version_skew_exact_vetoes () =
  (* Default predicate: hcx/1 offered, hcx/2 local — no agreement. *)
  with_pair ~server_codecs:[ hcx_v2 ] ~client_codecs:[ P.hcx ]
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "call works on base" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:0 ~fallback:1;
      check_stats "server" server ~nego:0 ~fallback:1)

let test_version_skew_compat_converges () =
  (* The same skew under a predicate that vouches for the (1, 2) pair:
     old client and new server converge — the server answers its own
     version, the client vets it with the same predicate and keeps
     speaking its local implementation. *)
  let vouch ~name ~offered ~local =
    name = "hcx" && abs (offered - local) <= 1
  in
  with_pair ~server_codecs:[ hcx_v2 ] ~server_compat:vouch
    ~client_codecs:[ P.hcx ] ~client_compat:vouch (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      for i = 1 to 5 do
        Alcotest.(check string) "skewed call"
          (Printf.sprintf "echo:%d" i)
          (invoke_string client target ~op:"echo" (string_of_int i))
      done;
      check_stats "client" client ~nego:1 ~fallback:0;
      check_stats "server" server ~nego:1 ~fallback:0)

let test_positional_era_server_no_resend () =
  (* A hand-rolled deadline-era server: it reads a request's first
     trailing string as the trace context and a second one, if any, as
     the budget, and knows no offer. The client's offer rides inside the
     trailer, which that server takes for an opaque context: it serves
     the call, its reply carries no answer, and the client falls back
     to the base codec without sending the request again. *)
  let proto = P.text in
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let port = listener.Orb.Transport.bound_port in
  let requests = ref 0 and contexts = ref [] in
  let server =
    Thread.create
      (fun () ->
        let chan = listener.Orb.Transport.accept () in
        let comm = Orb.Communicator.wrap proto chan in
        (try
           while true do
             let d =
               proto.P.codec.Wire.Codec.decoder
                 (chan.Orb.Transport.read_line ~max:65536)
             in
             incr requests;
             ignore (d.Wire.Codec.get_octet ());
             let rep_id = d.Wire.Codec.get_ulong () in
             ignore (d.Wire.Codec.get_bool ());
             ignore (d.Wire.Codec.get_string ());
             ignore (d.Wire.Codec.get_string ());
             let args =
               proto.P.codec.Wire.Codec.decoder (d.Wire.Codec.get_string ())
             in
             if not (d.Wire.Codec.at_end ()) then
               contexts := d.Wire.Codec.get_string () :: !contexts;
             if not (d.Wire.Codec.at_end ()) then
               ignore (int_of_string (d.Wire.Codec.get_string ()));
             let e = proto.P.codec.Wire.Codec.encoder () in
             e.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ());
             Orb.Communicator.send comm
               (P.Reply
                  { P.rep_id; status = P.Status_ok;
                    payload = e.Wire.Codec.finish (); nego_answer = "" })
           done
         with Orb.Transport.Transport_error _ -> ());
        Orb.Communicator.close comm)
      ()
  in
  let client = Orb.create ~transport:"mem" ~host:"local" ~codecs:[ P.hcx ] () in
  let target =
    Orb.Objref.make ~proto:"mem" ~host:"local" ~port ~oid:"x"
      ~type_id:echo_type
  in
  Fun.protect
    ~finally:(fun () -> listener.Orb.Transport.shutdown ())
    (fun () ->
      Alcotest.(check string) "call served by the old peer" "echo:hi"
        (invoke_string client target ~op:"echo" "hi");
      check_stats "client" client ~nego:0 ~fallback:1;
      Orb.shutdown client;
      Thread.join server;
      Alcotest.(check int) "one request, no re-send" 1 !requests;
      match !contexts with
      | [ ctx ] ->
          Alcotest.(check bool) "the trailer reads as a context that starts \
                                 a fresh root span" true
            (Obs.Trace.decode_context ctx = None)
      | l -> Alcotest.failf "old peer read %d trailing strings" (List.length l))

(* ---------------- the evolution model as the predicate ---------------- *)

(* Three published versions of the payload schema: v2 adds an operation
   to v1 (benign, W310), v3 removes one (wire-breaking, V301). *)
let snapshot ops =
  let root = Est.Node.create ~name:"root" ~kind:"specification" in
  let iface = Est.Node.create ~name:"Echo" ~kind:"interface" in
  Est.Node.add_prop iface "scopedName" "Echo";
  Est.Node.add_prop iface "repoId" echo_type;
  List.iter
    (fun op ->
      let m = Est.Node.create ~name:op ~kind:"operation" in
      Est.Node.add_prop m "methodName" op;
      Est.Node.add_prop m "returnType" "string";
      Est.Node.add_child iface ~group:"methodList" m)
    ops;
  Est.Node.add_child root ~group:"interfaceList" iface;
  root

let snapshots = function
  | 1 -> Some (snapshot [ "echo" ])
  | 2 -> Some (snapshot [ "echo"; "add" ])
  | 3 -> Some (snapshot [ "add" ])
  | _ -> None

let evolution_compat = Analysis.Evolve.codec_compat ~snapshots

let test_evolution_verdict_as_predicate () =
  (* Additions are compatible in both directions; removals and unknown
     versions veto the pair. *)
  Alcotest.(check bool) "same version" true
    (evolution_compat ~name:"hcx" ~offered:1 ~local:1);
  Alcotest.(check bool) "benign addition (old offered)" true
    (evolution_compat ~name:"hcx" ~offered:1 ~local:2);
  Alcotest.(check bool) "benign addition (new offered)" true
    (evolution_compat ~name:"hcx" ~offered:2 ~local:1);
  Alcotest.(check bool) "removal breaks (2 vs 3)" false
    (evolution_compat ~name:"hcx" ~offered:3 ~local:2);
  Alcotest.(check bool) "removal breaks (1 vs 3)" false
    (evolution_compat ~name:"hcx" ~offered:1 ~local:3);
  Alcotest.(check bool) "unknown version vetoed" false
    (evolution_compat ~name:"hcx" ~offered:9 ~local:1)

let test_evolution_verdict_end_to_end () =
  (* Wire it into live ORBs: a v1 client against a v2 server converges
     on hcx (the diff is a benign addition); against a v3 server the
     V301 verdict vetoes the pair and both fall back. *)
  with_pair ~server_codecs:[ hcx_v2 ] ~server_compat:evolution_compat
    ~client_codecs:[ P.hcx ] ~client_compat:evolution_compat
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "benign skew converges" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:1 ~fallback:0;
      check_stats "server" server ~nego:1 ~fallback:0);
  let hcx_v3 =
    P.generic ~name:"hcx" ~version:3
      ~framing:(P.Varint_prefixed { magic = P.hcx_magic })
      Wire.Hcx_codec.codec
  in
  with_pair ~server_codecs:[ hcx_v3 ] ~server_compat:evolution_compat
    ~client_codecs:[ P.hcx ] ~client_compat:evolution_compat
    (fun ~server ~client ->
      let target = Orb.export server (echo_skeleton ()) in
      Alcotest.(check string) "breaking skew falls back" "echo:x"
        (invoke_string client target ~op:"echo" "x");
      check_stats "client" client ~nego:0 ~fallback:1;
      check_stats "server" server ~nego:0 ~fallback:1)

let () =
  Alcotest.run "nego"
    [
      ( "convergence",
        [
          Alcotest.test_case "both sides speak hcx" `Quick test_converge_on_hcx;
          Alcotest.test_case "concurrent first calls negotiate once" `Quick
            test_concurrent_first_calls_negotiate_once;
          Alcotest.test_case "timeout behind the offer keeps the connection"
            `Quick test_timeout_behind_offer_keeps_connection;
          Alcotest.test_case "oneway does not offer" `Quick
            test_oneway_does_not_offer;
          Alcotest.test_case "negotiated calls marshal in the negotiated codec"
            `Quick test_negotiated_payloads;
          Alcotest.test_case "user exceptions decode with their codec" `Quick
            test_user_exception_codec;
          Alcotest.test_case "smart proxy across the switch" `Quick
            test_smart_proxy_across_switch;
          Alcotest.test_case "marshal failure keeps the offer" `Quick
            test_marshal_failure_keeps_offer;
          Alcotest.test_case "oneways racing the offer" `Quick
            test_oneways_racing_the_offer;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "server without codecs" `Quick
            test_server_without_codecs_falls_back;
          Alcotest.test_case "no common codec" `Quick
            test_no_common_codec_falls_back;
          Alcotest.test_case "version skew under exact" `Quick
            test_version_skew_exact_vetoes;
          Alcotest.test_case
            "positional-era server: offer unseen, fallback, no re-send" `Quick
            test_positional_era_server_no_resend;
        ] );
      ( "compatibility",
        [
          Alcotest.test_case "version skew under a vouching predicate" `Quick
            test_version_skew_compat_converges;
          Alcotest.test_case "evolution verdict as predicate" `Quick
            test_evolution_verdict_as_predicate;
          Alcotest.test_case "evolution verdict end to end" `Quick
            test_evolution_verdict_end_to_end;
        ] );
    ]
