(* Protocol envelope tests: the request/reply messages of both the text
   protocol and the GIOP-like binary protocol, plus framing. *)

module P = Orb.Protocol

let protocols =
  [
    P.text;
    Giop.protocol ();
    Giop.protocol ~order:Wire.Cdr_codec.Little_endian ();
    P.hcx;
  ]

let sample_target =
  Orb.Objref.make ~proto:"tcp" ~host:"galaxy.nec.com" ~port:1234 ~oid:"9876"
    ~type_id:"IDL:Heidi/A:1.0"

let sample_request payload =
  P.Request
    { P.req_id = 42; target = sample_target; operation = "f"; oneway = false;
      payload; trace_ctx = ""; budget_us = None; nego_offer = "" }

let check_message proto msg =
  let bytes = proto.P.encode_message msg in
  let back = proto.P.decode_message bytes in
  let render = function
    | P.Request r ->
        Printf.sprintf "req %d %s %s %b %S ctx=%S budget=%s offer=%S" r.P.req_id
          (Orb.Objref.to_string r.P.target)
          r.P.operation r.P.oneway r.P.payload r.P.trace_ctx
          (match r.P.budget_us with
          | None -> "-"
          | Some b -> string_of_int b)
          r.P.nego_offer
    | P.Reply r ->
        Printf.sprintf "rep %d %s %S answer=%S" r.P.rep_id
          (match r.P.status with
          | P.Status_ok -> "ok"
          | P.Status_user_exception id -> "exn " ^ id
          | P.Status_system_error m -> "err " ^ m)
          r.P.payload r.P.nego_answer
    | P.Locate_request { req_id; target } ->
        Printf.sprintf "locate %d %s" req_id (Orb.Objref.to_string target)
    | P.Locate_reply { rep_id; found; forward } ->
        Printf.sprintf "located %d %b fwd=%s" rep_id found
          (match forward with
          | None -> "-"
          | Some r -> Orb.Objref.to_string r)
    | P.Locate_forward { rep_id; target } ->
        Printf.sprintf "forward %d %s" rep_id (Orb.Objref.to_string target)
  in
  Alcotest.(check string) proto.P.name (render msg) (render back)

let test_request_roundtrip () =
  List.iter
    (fun proto ->
      let payload =
        let e = proto.P.codec.Wire.Codec.encoder () in
        e.Wire.Codec.put_long 7;
        e.Wire.Codec.put_string "arg";
        e.Wire.Codec.finish ()
      in
      check_message proto (sample_request payload);
      check_message proto (sample_request "");
      check_message proto
        (P.Request
           { P.req_id = 0; target = sample_target; operation = "_get_state";
             oneway = true; payload; trace_ctx = ""; budget_us = None; nego_offer = "" }))
    protocols

let multi_target =
  Orb.Objref.make_multi
    ~endpoints:
      [ ("tcp", "h1", 1234); ("tcp", "h2", 1234); ("mem", "local", 7) ]
    ~oid:"9876" ~type_id:"IDL:Heidi/A:1.0"

let test_locate_roundtrip () =
  List.iter
    (fun proto ->
      check_message proto (P.Locate_request { req_id = 5; target = sample_target });
      check_message proto (P.Locate_reply { rep_id = 5; found = true; forward = None });
      check_message proto (P.Locate_reply { rep_id = 6; found = false; forward = None });
      check_message proto
        (P.Locate_reply { rep_id = 7; found = true; forward = Some sample_target });
      check_message proto
        (P.Locate_reply { rep_id = 8; found = true; forward = Some multi_target });
      check_message proto (P.Locate_forward { rep_id = 9; target = sample_target });
      check_message proto (P.Locate_forward { rep_id = 10; target = multi_target }))
    protocols

let test_multi_endpoint_request_roundtrip () =
  (* A request whose target carries an endpoint set survives both
     codecs' envelopes. *)
  List.iter
    (fun proto ->
      check_message proto
        (P.Request
           { P.req_id = 42; target = multi_target; operation = "f";
             oneway = false; payload = "x"; trace_ctx = ""; budget_us = None; nego_offer = "" }))
    protocols

let test_malformed_forward_rejected () =
  (* A Locate_forward whose embedded reference is damaged must fail as a
     protocol error, not leak a Type_error or a bogus objref. *)
  List.iter
    (fun proto ->
      let e = proto.P.codec.Wire.Codec.encoder () in
      e.Wire.Codec.put_octet 4;
      e.Wire.Codec.put_ulong 1;
      e.Wire.Codec.put_string "@tcp:h";
      match proto.P.decode_message (e.Wire.Codec.finish ()) with
      | exception P.Protocol_error _ -> ()
      | _ -> Alcotest.failf "%s: malformed forward accepted" proto.P.name)
    protocols

let test_reply_roundtrip () =
  List.iter
    (fun proto ->
      check_message proto (P.Reply { P.rep_id = 1; status = P.Status_ok; payload = ""; nego_answer = "" });
      check_message proto
        (P.Reply
           { P.rep_id = 9999; status = P.Status_user_exception "IDL:E:1.0";
             payload = "xyz"; nego_answer = "" });
      check_message proto
        (P.Reply
           { P.rep_id = 3; status = P.Status_system_error "no object"; payload = "";
             nego_answer = "" }))
    protocols

let test_payload_encapsulation () =
  (* The payload travels as an opaque counted string: binary payload
     bytes survive embedding in the envelope of every protocol. *)
  let binary_payload = "\000\001\255\n\"raw\" \\bytes\000" in
  List.iter
    (fun proto ->
      match proto.P.decode_message (proto.P.encode_message (sample_request binary_payload)) with
      | P.Request r -> Alcotest.(check string) proto.P.name binary_payload r.P.payload
      | _ -> Alcotest.fail "wrong message kind")
    [ Giop.protocol (); Giop.protocol ~order:Wire.Cdr_codec.Little_endian () ]

let test_malformed_messages () =
  List.iter
    (fun proto ->
      List.iter
        (fun bytes ->
          match proto.P.decode_message bytes with
          | exception P.Protocol_error _ -> ()
          | exception Wire.Codec.Type_error _ ->
              Alcotest.fail "Type_error leaked through decode_message"
          | _ -> Alcotest.failf "%s: expected protocol error" proto.P.name)
        [ ""; "garbage"; "\042" ])
    protocols

let test_bad_target_rejected () =
  let proto = P.text in
  (* Hand-craft a request whose target reference is malformed. *)
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 0;
  e.Wire.Codec.put_ulong 1;
  e.Wire.Codec.put_bool false;
  e.Wire.Codec.put_string "not-a-reference";
  e.Wire.Codec.put_string "op";
  e.Wire.Codec.put_string "";
  match proto.P.decode_message (e.Wire.Codec.finish ()) with
  | exception P.Protocol_error _ -> ()
  | _ -> Alcotest.fail "malformed target accepted"

(* ---------------- service-context slot interop ---------------- *)

(* The trace context rides in a service-context slot appended after the
   payload and omitted when empty. These tests pin down both interop
   directions with peers that predate the slot. *)

let ctx_request ?budget_us ~trace_ctx () =
  { P.req_id = 42; target = sample_target; operation = "f"; oneway = false;
    payload = "pay\008load"; trace_ctx; budget_us; nego_offer = "" }

(* The request envelope exactly as pre-slot peers encoded it: every
   field up to and including the payload, then [trailing] if given. *)
let legacy_encode ?trailing proto (r : P.request) =
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 0;
  e.Wire.Codec.put_ulong r.P.req_id;
  e.Wire.Codec.put_bool r.P.oneway;
  e.Wire.Codec.put_string (Orb.Objref.to_string r.P.target);
  e.Wire.Codec.put_string r.P.operation;
  e.Wire.Codec.put_string r.P.payload;
  Option.iter e.Wire.Codec.put_string trailing;
  e.Wire.Codec.finish ()

(* ... and the matching pre-slot decoder, which stops at the payload
   and never looks at trailing bytes. *)
let legacy_decode proto bytes =
  let d = proto.P.codec.Wire.Codec.decoder bytes in
  let tag = d.Wire.Codec.get_octet () in
  let req_id = d.Wire.Codec.get_ulong () in
  let oneway = d.Wire.Codec.get_bool () in
  let target = d.Wire.Codec.get_string () in
  let operation = d.Wire.Codec.get_string () in
  let payload = d.Wire.Codec.get_string () in
  (tag, req_id, oneway, target, operation, payload)

let test_trace_ctx_roundtrip () =
  List.iter
    (fun proto ->
      check_message proto
        (P.Request (ctx_request ~trace_ctx:"00112233445566778899aabbccddeeff-0123456789abcdef" ())))
    protocols

let test_old_peer_to_new_decoder () =
  (* Bytes from a pre-slot peer: the new decoder reads them as the
     empty context instead of failing at end-of-message. *)
  List.iter
    (fun proto ->
      let bytes = legacy_encode proto (ctx_request ~trace_ctx:"" ()) in
      match proto.P.decode_message bytes with
      | P.Request r ->
          Alcotest.(check string) (proto.P.name ^ " ctx") "" r.P.trace_ctx;
          Alcotest.(check string) (proto.P.name ^ " payload") "pay\008load" r.P.payload;
          Alcotest.(check string) (proto.P.name ^ " op") "f" r.P.operation
      | _ -> Alcotest.fail "wrong message kind")
    protocols

let test_new_peer_to_old_decoder () =
  (* Bytes WITH a context, read by the pre-slot decoder: every field it
     knows about decodes unchanged; the context is trailing bytes it
     never touches. *)
  List.iter
    (fun proto ->
      let bytes =
        proto.P.encode_message
          (P.Request (ctx_request ~trace_ctx:"deadbeefdeadbeefdeadbeefdeadbeef-cafebabecafebabe" ()))
      in
      let tag, req_id, oneway, target, operation, payload =
        legacy_decode proto bytes
      in
      Alcotest.(check int) (proto.P.name ^ " tag") 0 tag;
      Alcotest.(check int) (proto.P.name ^ " req_id") 42 req_id;
      Alcotest.(check bool) (proto.P.name ^ " oneway") false oneway;
      Alcotest.(check string) (proto.P.name ^ " target")
        (Orb.Objref.to_string sample_target) target;
      Alcotest.(check string) (proto.P.name ^ " op") "f" operation;
      Alcotest.(check string) (proto.P.name ^ " payload") "pay\008load" payload)
    protocols

let test_empty_ctx_is_byte_identical_to_legacy () =
  (* The compatibility invariant the whole scheme rests on: with no
     context, the new encoder's output is the old encoding, byte for
     byte — not merely decodable. *)
  List.iter
    (fun proto ->
      let r = ctx_request ~trace_ctx:"" () in
      Alcotest.(check string) proto.P.name (legacy_encode proto r)
        (proto.P.encode_message (P.Request r)))
    protocols

(* ---------------- positional-era peers ---------------- *)

(* Before the trailer, requests carried up to three positional slots
   after the payload: the trace context, then the deadline budget
   (deadline era), then the codec-negotiation offer (negotiation era).
   Writing a later slot forced the earlier ones onto the wire, an unset
   budget as [""]. [slots] names the era: 1 = trace context only,
   2 = deadline era, 3 = negotiation era. *)
let positional_encode proto ~slots (r : P.request) =
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 0;
  e.Wire.Codec.put_ulong r.P.req_id;
  e.Wire.Codec.put_bool r.P.oneway;
  e.Wire.Codec.put_string (Orb.Objref.to_string r.P.target);
  e.Wire.Codec.put_string r.P.operation;
  e.Wire.Codec.put_string r.P.payload;
  let budget =
    match r.P.budget_us with Some b -> string_of_int b | None -> ""
  in
  let values =
    List.filteri (fun i _ -> i < slots) [ r.P.trace_ctx; budget; r.P.nego_offer ]
  in
  let written =
    fst
      (List.fold_left
         (fun (n, i) v -> ((if v <> "" then i + 1 else n), i + 1))
         (0, 0) values)
  in
  List.iteri (fun i v -> if i < written then e.Wire.Codec.put_string v) values;
  e.Wire.Codec.finish ()

(* ... and the matching decoders: each reads the slots of its era while
   bytes remain and never looks further. The deadline era refused a
   budget that was not a non-negative decimal, the empty one included;
   the negotiation era read an empty budget as none. *)
let positional_decode proto ~slots bytes =
  let d = proto.P.codec.Wire.Codec.decoder bytes in
  let _tag = d.Wire.Codec.get_octet () in
  let req_id = d.Wire.Codec.get_ulong () in
  let oneway = d.Wire.Codec.get_bool () in
  let target = Orb.Objref.of_string (d.Wire.Codec.get_string ()) in
  let operation = d.Wire.Codec.get_string () in
  let payload = d.Wire.Codec.get_string () in
  let next i =
    if i > slots || d.Wire.Codec.at_end () then None
    else Some (d.Wire.Codec.get_string ())
  in
  let trace_ctx = Option.value (next 1) ~default:"" in
  let budget_us =
    match next 2 with
    | None -> None
    | Some "" when slots >= 3 -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some b when b >= 0 -> Some b
        | _ ->
            raise
              (P.Protocol_error (Printf.sprintf "malformed deadline slot %S" s)))
  in
  let nego_offer = Option.value (next 3) ~default:"" in
  { P.req_id; target; operation; oneway; payload; trace_ctx; budget_us;
    nego_offer }

let sample_ctx = "deadbeefdeadbeefdeadbeefdeadbeef-cafebabecafebabe"

(* Every subset of the three request entries. *)
let request_subsets =
  List.concat_map
    (fun trace_ctx ->
      List.concat_map
        (fun budget_us ->
          List.map
            (fun offer ->
              { (ctx_request ?budget_us ~trace_ctx ()) with P.nego_offer = offer })
            [ ""; "hcx/1,heidi-text/1" ])
        [ None; Some 750_000 ])
    [ ""; sample_ctx ]

let describe (r : P.request) =
  Printf.sprintf "ctx=%S budget=%s offer=%S" r.P.trace_ctx
    (match r.P.budget_us with None -> "-" | Some b -> string_of_int b)
    r.P.nego_offer

(* Compatibility row "new sender -> positional-era decoder": the
   receiver reads the trailer as an opaque trace context, starts a
   fresh root span, applies no budget and never sees the offer. *)
let new_sender_to_positional_decoder ~slots =
  List.iter
    (fun proto ->
      List.iter
        (fun (r : P.request) ->
          let what = proto.P.name ^ " " ^ describe r in
          let got =
            try positional_decode proto ~slots (proto.P.encode_message (P.Request r))
            with e -> Alcotest.failf "%s: refused (%s)" what (Printexc.to_string e)
          in
          Alcotest.(check string) (what ^ " payload") r.P.payload got.P.payload;
          Alcotest.(check string) (what ^ " op") r.P.operation got.P.operation;
          Alcotest.(check (option int)) (what ^ " no budget") None got.P.budget_us;
          Alcotest.(check string) (what ^ " offer unseen") "" got.P.nego_offer;
          Alcotest.(check bool) (what ^ " fresh root span") true
            (Obs.Trace.decode_context got.P.trace_ctx = None))
        request_subsets)
    protocols

let test_budget_roundtrip () =
  List.iter
    (fun proto ->
      (* With and without a context: the budget survives either way. *)
      check_message proto
        (P.Request (ctx_request ~budget_us:1_500_000 ~trace_ctx:"" ()));
      check_message proto
        (P.Request
           (ctx_request ~budget_us:250
              ~trace_ctx:"00112233445566778899aabbccddeeff-0123456789abcdef"
              ()));
      check_message proto
        (P.Request (ctx_request ~budget_us:0 ~trace_ctx:"" ())))
    protocols

let test_prebudget_peer_to_new_decoder () =
  (* Compatibility row "older client -> new server": a first trailing
     string without the format byte is the trace context. *)
  List.iter
    (fun proto ->
      List.iter
        (fun trace_ctx ->
          let bytes =
            positional_encode proto ~slots:1 (ctx_request ~trace_ctx ())
          in
          match proto.P.decode_message bytes with
          | P.Request r ->
              Alcotest.(check (option int))
                (proto.P.name ^ " budget") None r.P.budget_us;
              Alcotest.(check string) (proto.P.name ^ " ctx") trace_ctx
                r.P.trace_ctx
          | _ -> Alcotest.fail "wrong message kind")
        [ ""; sample_ctx ])
    protocols

let test_new_peer_to_prebudget_decoder () =
  new_sender_to_positional_decoder ~slots:1

(* The trailer's wire form, spelled out: the format byte, then per entry
   a tag byte, a 16-bit big-endian length and the bytes. *)
let trailer entries =
  let b = Buffer.create 64 in
  Buffer.add_char b '~';
  List.iter
    (fun (tag, v) ->
      Buffer.add_char b tag;
      Buffer.add_uint16_be b (String.length v);
      Buffer.add_string b v)
    entries;
  Buffer.contents b

(* A request with a hand-made trailing string. *)
let request_with proto trailing =
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 0;
  e.Wire.Codec.put_ulong 7;
  e.Wire.Codec.put_bool false;
  e.Wire.Codec.put_string (Orb.Objref.to_string sample_target);
  e.Wire.Codec.put_string "f";
  e.Wire.Codec.put_string "payload";
  e.Wire.Codec.put_string trailing;
  e.Wire.Codec.finish ()

let expect_refused proto what bytes =
  match proto.P.decode_message bytes with
  | exception P.Protocol_error _ -> ()
  | exception Wire.Codec.Type_error _ ->
      Alcotest.fail "Type_error leaked through decode_message"
  | _ -> Alcotest.failf "%s: %s accepted" proto.P.name what

let test_hostile_budget_slots_rejected () =
  (* A damaged or hostile budget entry must surface as Protocol_error
     (the recoverable "answer malformed-request and keep the
     connection" class), never a crash or a bogus deadline. Only ASCII
     digits count: [int_of_string] spellings such as "0x10" (16 µs)
     are refused, and so is an empty entry. *)
  List.iter
    (fun proto ->
      List.iter
        (fun hostile ->
          expect_refused proto
            (Printf.sprintf "hostile budget %S" hostile)
            (request_with proto (trailer [ ('b', hostile) ])))
        [ "-5"; "not-a-number"; "99999999999999999999999999999"; "1.5"; "";
          "0x10"; "1_000"; "+5"; "-0"; "0b11"; "0u5"; " 5" ])
    protocols

(* ---------------- codec-negotiation entries ---------------- *)

let nego_request ?budget_us ?(trace_ctx = "") ~offer () =
  { (ctx_request ?budget_us ~trace_ctx ()) with P.nego_offer = offer }

let test_nego_offer_roundtrip () =
  List.iter
    (fun proto ->
      List.iter
        (fun (budget_us, trace_ctx) ->
          let r = nego_request ?budget_us ~trace_ctx ~offer:"hcx/1,heidi-text/1" () in
          match proto.P.decode_message (proto.P.encode_message (P.Request r)) with
          | P.Request got ->
              Alcotest.(check string) (proto.P.name ^ " offer")
                "hcx/1,heidi-text/1" got.P.nego_offer;
              Alcotest.(check string) (proto.P.name ^ " ctx") trace_ctx
                got.P.trace_ctx;
              Alcotest.(check (option int)) (proto.P.name ^ " budget")
                budget_us got.P.budget_us;
              Alcotest.(check string) (proto.P.name ^ " payload") "pay\008load"
                got.P.payload
          | _ -> Alcotest.fail "wrong message kind")
        [ (None, ""); (Some 750_000, ""); (None, "cafe-babe"); (Some 1, "cafe-babe") ])
    protocols

let test_nego_answer_roundtrip () =
  List.iter
    (fun proto ->
      (match
         proto.P.decode_message
           (proto.P.encode_message
              (P.Reply
                 { P.rep_id = 4; status = P.Status_ok; payload = "result";
                   nego_answer = "hcx/1" }))
       with
      | P.Reply got ->
          Alcotest.(check string) (proto.P.name ^ " answer") "hcx/1"
            got.P.nego_answer;
          Alcotest.(check string) (proto.P.name ^ " payload") "result"
            got.P.payload
      | _ -> Alcotest.fail "wrong message kind");
      (* An answer-carrying reply read by a pre-negotiation reply
         decoder: every field it knows about decodes unchanged; the
         answer is trailing bytes it never touches. *)
      let bytes =
        proto.P.encode_message
          (P.Reply
             { P.rep_id = 9; status = P.Status_user_exception "IDL:E:1.0";
               payload = "xyz"; nego_answer = "hcx/1" })
      in
      let d = proto.P.codec.Wire.Codec.decoder bytes in
      Alcotest.(check int) (proto.P.name ^ " tag") 1 (d.Wire.Codec.get_octet ());
      Alcotest.(check int) (proto.P.name ^ " rep_id") 9 (d.Wire.Codec.get_ulong ());
      Alcotest.(check int) (proto.P.name ^ " status") 1 (d.Wire.Codec.get_octet ());
      Alcotest.(check string) (proto.P.name ^ " repo id") "IDL:E:1.0"
        (d.Wire.Codec.get_string ());
      Alcotest.(check string) (proto.P.name ^ " payload") "xyz"
        (d.Wire.Codec.get_string ()))
    protocols

let test_deadline_era_peer_to_new_decoder () =
  (* Compatibility row "older client -> new server", for deadline-era
     and negotiation-era clients: the first slot is the trace context,
     and the later positional slots are ignored — no budget is applied
     and no offer is seen across the era boundary. *)
  List.iter
    (fun proto ->
      List.iter
        (fun slots ->
          List.iter
            (fun (r : P.request) ->
              let what =
                Printf.sprintf "%s era %d %s" proto.P.name slots (describe r)
              in
              match
                proto.P.decode_message (positional_encode proto ~slots r)
              with
              | P.Request got ->
                  Alcotest.(check string) (what ^ " ctx") r.P.trace_ctx
                    got.P.trace_ctx;
                  Alcotest.(check (option int)) (what ^ " budget ignored") None
                    got.P.budget_us;
                  Alcotest.(check string) (what ^ " offer ignored") ""
                    got.P.nego_offer;
                  Alcotest.(check string) (what ^ " payload") r.P.payload
                    got.P.payload
              | _ -> Alcotest.fail "wrong message kind")
            (if slots = 2 then
               List.filter (fun r -> r.P.nego_offer = "") request_subsets
             else request_subsets))
        [ 2; 3 ])
    protocols

let test_offer_to_deadline_era_decoder () =
  new_sender_to_positional_decoder ~slots:2

let test_hostile_nego_slots_rejected () =
  (* Oversized or charset-violating offers and answers fail as
     recoverable protocol errors before any token is interpreted. *)
  List.iter
    (fun proto ->
      List.iter
        (fun hostile ->
          expect_refused proto
            (Printf.sprintf "hostile offer %S" hostile)
            (request_with proto (trailer [ ('o', hostile) ]));
          let e = proto.P.codec.Wire.Codec.encoder () in
          e.Wire.Codec.put_octet 1;
          e.Wire.Codec.put_ulong 7;
          e.Wire.Codec.put_octet 0;
          e.Wire.Codec.put_string "";
          e.Wire.Codec.put_string "";
          e.Wire.Codec.put_string (trailer [ ('a', hostile) ]);
          expect_refused proto
            (Printf.sprintf "hostile answer %S" hostile)
            (e.Wire.Codec.finish ()))
        [
          String.make 300 'a';
          "HCX/1";
          "hcx/1; exec evil";
          "hcx/1\000";
          "h\xc3\xa1x/1";
        ])
    protocols

let test_nego_module () =
  Alcotest.(check string) "token" "hcx/1" (P.Nego.token P.hcx);
  Alcotest.(check string) "offer_of preserves preference order"
    "hcx/1,heidi-text/1"
    (P.Nego.offer_of [ P.hcx; P.text ]);
  Alcotest.(check (option (pair string int))) "parse" (Some ("hcx", 1))
    (P.Nego.parse_token "hcx/1");
  List.iter
    (fun bad ->
      Alcotest.(check (option (pair string int))) bad None (P.Nego.parse_token bad))
    [ "bogus"; "hcx/"; "/1"; "hcx/9x"; "hcx/-1"; "hcx/99999999999999999999";
      "hcx/0x1"; "hcx/1_000"; "hcx/+5"; "hcx/-0"; "hcx/0b11"; "hcx/0u5" ];
  (* choose follows the client's preference order over the server's
     supported set, under the compatibility predicate. *)
  (match P.Nego.choose ~offer:"hcx/1" ~supported:[ P.hcx ] ~compatible:P.Nego.exact with
  | Some (p, tok) ->
      Alcotest.(check string) "chosen" "hcx" p.P.name;
      Alcotest.(check string) "answer token" "hcx/1" tok
  | None -> Alcotest.fail "no choice");
  (match
     P.Nego.choose ~offer:"giop-be/1,hcx/1"
       ~supported:[ P.hcx; Giop.protocol () ]
       ~compatible:P.Nego.exact
   with
  | Some (p, _) -> Alcotest.(check string) "client preference wins" "giop-be" p.P.name
  | None -> Alcotest.fail "no choice");
  (* Unknown tokens are skipped, not fatal. *)
  (match
     P.Nego.choose ~offer:"esiop/9,hcx/1" ~supported:[ P.hcx ]
       ~compatible:P.Nego.exact
   with
  | Some (p, _) -> Alcotest.(check string) "unknown skipped" "hcx" p.P.name
  | None -> Alcotest.fail "no choice");
  (* Version mismatch: vetoed under exact, allowed under a permissive
     predicate (the evolution-model hook). *)
  Alcotest.(check bool) "exact vetoes" true
    (P.Nego.choose ~offer:"hcx/2" ~supported:[ P.hcx ] ~compatible:P.Nego.exact
     = None);
  match
    P.Nego.choose ~offer:"hcx/2" ~supported:[ P.hcx ]
      ~compatible:(fun ~name:_ ~offered:_ ~local:_ -> true)
  with
  | Some (p, tok) ->
      Alcotest.(check string) "permissive accepts" "hcx" p.P.name;
      (* The answer echoes OUR version: the predicate vouched for the pair. *)
      Alcotest.(check string) "answer is local version" "hcx/1" tok
  | None -> Alcotest.fail "no choice"

(* ---------------- locate-reply forward slot interop ---------------- *)

(* The forward objref rides in a slot appended after the historical
   locate-reply fields and omitted when [None] — same compatibility
   scheme as the trace context, pinned in both directions. *)

(* A locate reply exactly as pre-forward peers encoded it. *)
let legacy_locate_encode proto ~rep_id ~found =
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 3;
  e.Wire.Codec.put_ulong rep_id;
  e.Wire.Codec.put_bool found;
  e.Wire.Codec.finish ()

(* ... and the matching pre-forward decoder, which never looks past
   the [found] flag. *)
let legacy_locate_decode proto bytes =
  let d = proto.P.codec.Wire.Codec.decoder bytes in
  let tag = d.Wire.Codec.get_octet () in
  let rep_id = d.Wire.Codec.get_ulong () in
  let found = d.Wire.Codec.get_bool () in
  (tag, rep_id, found)

let test_old_locate_peer_to_new_decoder () =
  List.iter
    (fun proto ->
      let bytes = legacy_locate_encode proto ~rep_id:7 ~found:true in
      match proto.P.decode_message bytes with
      | P.Locate_reply { rep_id; found; forward } ->
          Alcotest.(check int) (proto.P.name ^ " rep_id") 7 rep_id;
          Alcotest.(check bool) (proto.P.name ^ " found") true found;
          Alcotest.(check bool) (proto.P.name ^ " no forward") true (forward = None)
      | _ -> Alcotest.fail "wrong message kind")
    protocols

let test_new_locate_peer_to_old_decoder () =
  (* Bytes WITH a forward, read by the pre-forward decoder: the fields
     it knows about decode unchanged; the forward is trailing bytes. *)
  List.iter
    (fun proto ->
      let bytes =
        proto.P.encode_message
          (P.Locate_reply { rep_id = 9; found = true; forward = Some multi_target })
      in
      let tag, rep_id, found = legacy_locate_decode proto bytes in
      Alcotest.(check int) (proto.P.name ^ " tag") 3 tag;
      Alcotest.(check int) (proto.P.name ^ " rep_id") 9 rep_id;
      Alcotest.(check bool) (proto.P.name ^ " found") true found)
    protocols

let test_no_forward_is_byte_identical_to_legacy () =
  List.iter
    (fun proto ->
      Alcotest.(check string) proto.P.name
        (legacy_locate_encode proto ~rep_id:11 ~found:false)
        (proto.P.encode_message
           (P.Locate_reply { rep_id = 11; found = false; forward = None })))
    protocols

(* ---------------- the trailer ---------------- *)

(* What follows the historical fields of a message: its trailing
   strings. *)
let trailing_strings proto kind bytes =
  let d = proto.P.codec.Wire.Codec.decoder bytes in
  ignore (d.Wire.Codec.get_octet ());
  ignore (d.Wire.Codec.get_ulong ());
  (match kind with
  | `Request ->
      ignore (d.Wire.Codec.get_bool ());
      for _ = 1 to 3 do ignore (d.Wire.Codec.get_string ()) done
  | `Reply ->
      ignore (d.Wire.Codec.get_octet ());
      for _ = 1 to 2 do ignore (d.Wire.Codec.get_string ()) done
  | `Locate_reply -> ignore (d.Wire.Codec.get_bool ()));
  let rec rest acc =
    if d.Wire.Codec.at_end () then List.rev acc
    else rest (d.Wire.Codec.get_string () :: acc)
  in
  rest []

(* A reply exactly as pre-slot peers encoded it. *)
let legacy_reply_encode proto ~rep_id ~payload =
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 1;
  e.Wire.Codec.put_ulong rep_id;
  e.Wire.Codec.put_octet 0;
  e.Wire.Codec.put_string "";
  e.Wire.Codec.put_string payload;
  e.Wire.Codec.finish ()

let test_entry_matrix () =
  (* Every subset of entries, in each message kind that carries a
     trailer, in every codec: the message round-trips; with no entry it
     is the pre-slot encoding byte for byte, otherwise it is that
     encoding plus exactly one string opening with the format byte. *)
  List.iter
    (fun proto ->
      let check what kind msg legacy =
        let what = proto.P.name ^ " " ^ what in
        check_message proto msg;
        let bytes = proto.P.encode_message msg in
        match (legacy, trailing_strings proto kind bytes) with
        | Some legacy, tail ->
            Alcotest.(check string) (what ^ " is the pre-slot encoding") legacy
              bytes;
            Alcotest.(check int) (what ^ " no trailer") 0 (List.length tail)
        | None, [ t ] ->
            Alcotest.(check char) (what ^ " format byte") '~' t.[0]
        | None, tail ->
            Alcotest.failf "%s: %d trailing strings" what (List.length tail)
      in
      List.iter
        (fun (r : P.request) ->
          let empty = r.P.trace_ctx = "" && r.P.budget_us = None && r.P.nego_offer = "" in
          check (describe r) `Request (P.Request r)
            (if empty then Some (legacy_encode proto r) else None))
        request_subsets;
      List.iter
        (fun nego_answer ->
          check ("answer=" ^ nego_answer) `Reply
            (P.Reply { P.rep_id = 3; status = P.Status_ok; payload = "r"; nego_answer })
            (if nego_answer = "" then
               Some (legacy_reply_encode proto ~rep_id:3 ~payload:"r")
             else None))
        [ ""; "hcx/1" ];
      List.iter
        (fun forward ->
          check
            (if forward = None then "no forward" else "forward")
            `Locate_reply
            (P.Locate_reply { rep_id = 5; found = true; forward })
            (if forward = None then
               Some (legacy_locate_encode proto ~rep_id:5 ~found:true)
             else None))
        [ None; Some multi_target ])
    protocols

let test_hostile_trailers_rejected () =
  (* Structural damage, duplicates and oversize are recoverable protocol
     errors, in every message kind that carries a trailer. *)
  List.iter
    (fun proto ->
      List.iter
        (fun (what, t) -> expect_refused proto what (request_with proto t))
        [
          ("truncated entry", "~c");
          ("truncated length", "~c\000");
          ("length past the end", "~c\000\005ab");
          ("duplicate budget", trailer [ ('b', "5"); ('b', "6") ]);
          ("duplicate context", trailer [ ('c', "a-b"); ('c', "a-b") ]);
          ("nine entries", trailer (List.init 9 (fun _ -> ('z', ""))));
          ("5000-byte trailer", trailer [ ('z', String.make 5000 'x') ]);
          ( "4 KiB context",
            trailer [ ('c', String.make 4000 'a' ^ "-" ^ String.make 8 'b') ] );
          ( "4 KiB positional-era context",
            String.make 4096 'a' ^ "-" ^ String.make 8 'b' );
        ];
      let reply t =
        let e = proto.P.codec.Wire.Codec.encoder () in
        e.Wire.Codec.put_octet 1;
        e.Wire.Codec.put_ulong 7;
        e.Wire.Codec.put_octet 0;
        e.Wire.Codec.put_string "";
        e.Wire.Codec.put_string "";
        e.Wire.Codec.put_string t;
        e.Wire.Codec.finish ()
      in
      expect_refused proto "duplicate answer"
        (reply (trailer [ ('a', "hcx/1"); ('a', "hcx/1") ]));
      let locate_reply t =
        let e = proto.P.codec.Wire.Codec.encoder () in
        e.Wire.Codec.put_octet 3;
        e.Wire.Codec.put_ulong 7;
        e.Wire.Codec.put_bool true;
        e.Wire.Codec.put_string t;
        e.Wire.Codec.finish ()
      in
      let fwd = Orb.Objref.to_string sample_target in
      expect_refused proto "duplicate forward"
        (locate_reply (trailer [ ('f', fwd); ('f', fwd) ]));
      expect_refused proto "malformed forward"
        (locate_reply (trailer [ ('f', "@tcp:h") ])))
    protocols

let test_unknown_tags_skipped () =
  (* Entries a later version may add are skipped, up to the entry bound;
     so are known entries that belong to another message kind. Their
     lengths put '\n', '\r', '"' and '\\' bytes into the trailer, which
     the text codec must escape. A first string without the format byte
     is a positional-era slot. *)
  List.iter
    (fun proto ->
      let t =
        trailer
          (('z', "future") :: ('c', sample_ctx) :: ('a', "hcx/1")
          :: List.mapi
               (fun i n -> (Char.chr (Char.code 'A' + i), String.make n 'x'))
               [ 10; 13; 34; 92; 0 ])
      in
      (match proto.P.decode_message (request_with proto t) with
      | P.Request r ->
          Alcotest.(check string) (proto.P.name ^ " ctx") sample_ctx r.P.trace_ctx;
          Alcotest.(check (option int)) (proto.P.name ^ " budget") None r.P.budget_us
      | _ -> Alcotest.fail "wrong message kind");
      match proto.P.decode_message (request_with proto "!c\000\001x") with
      | P.Request r ->
          Alcotest.(check string) (proto.P.name ^ " wrong format byte")
            "!c\000\001x" r.P.trace_ctx
      | _ -> Alcotest.fail "wrong message kind")
    protocols

let test_new_sender_to_nego_era_decoder () =
  new_sender_to_positional_decoder ~slots:3

let test_offer_is_one_trailer_entry () =
  (* An offer forces no empty context or budget onto the wire: the
     request is the pre-slot encoding plus a trailer holding the offer
     entry alone. *)
  List.iter
    (fun proto ->
      let r = nego_request ~offer:"hcx/1" () in
      Alcotest.(check string) proto.P.name
        (legacy_encode proto r ~trailing:(trailer [ ('o', "hcx/1") ]))
        (proto.P.encode_message (P.Request r));
      check_message proto (P.Request r))
    protocols

let test_ctx_without_budget_is_one_entry () =
  (* A trace context with no budget is the pre-slot encoding plus a
     trailer holding the context entry alone: no empty budget entry. *)
  List.iter
    (fun proto ->
      let r = ctx_request ~trace_ctx:sample_ctx () in
      Alcotest.(check string) proto.P.name
        (legacy_encode proto r ~trailing:(trailer [ ('c', sample_ctx) ]))
        (proto.P.encode_message (P.Request r));
      check_message proto (P.Request r))
    protocols

(* A locate reply as forward-era peers decoded it: the forward slot, if
   bytes remain, must parse as a reference. *)
let forward_era_locate_decode proto bytes =
  let d = proto.P.codec.Wire.Codec.decoder bytes in
  ignore (d.Wire.Codec.get_octet ());
  ignore (d.Wire.Codec.get_ulong ());
  ignore (d.Wire.Codec.get_bool ());
  if d.Wire.Codec.at_end () then None
  else
    match Orb.Objref.of_string_opt (d.Wire.Codec.get_string ()) with
    | Some r -> Some r
    | None -> raise (P.Protocol_error "malformed forward reference")

let test_forward_to_pre_trailer_client () =
  (* Compatibility row "new server -> pre-trailer client": a locate
     reply with a forward fails that client's decode recoverably;
     [Locate_forward] is unchanged, so its invocations still follow
     forwards. The reverse direction reads a positional-era forward. *)
  List.iter
    (fun proto ->
      let with_forward =
        proto.P.encode_message
          (P.Locate_reply { rep_id = 5; found = true; forward = Some sample_target })
      in
      (match forward_era_locate_decode proto with_forward with
      | exception P.Protocol_error _ -> ()
      | _ -> Alcotest.failf "%s: pre-trailer client read the forward" proto.P.name);
      Alcotest.(check bool) (proto.P.name ^ " no forward still decodes") true
        (forward_era_locate_decode proto
           (proto.P.encode_message
              (P.Locate_reply { rep_id = 5; found = true; forward = None }))
        = None);
      let e = proto.P.codec.Wire.Codec.encoder () in
      e.Wire.Codec.put_octet 4;
      e.Wire.Codec.put_ulong 9;
      e.Wire.Codec.put_string (Orb.Objref.to_string sample_target);
      Alcotest.(check string) (proto.P.name ^ " Locate_forward unchanged")
        (e.Wire.Codec.finish ())
        (proto.P.encode_message
           (P.Locate_forward { rep_id = 9; target = sample_target }));
      let e = proto.P.codec.Wire.Codec.encoder () in
      e.Wire.Codec.put_octet 3;
      e.Wire.Codec.put_ulong 5;
      e.Wire.Codec.put_bool true;
      e.Wire.Codec.put_string (Orb.Objref.to_string multi_target);
      match proto.P.decode_message (e.Wire.Codec.finish ()) with
      | P.Locate_reply { forward = Some r; _ } ->
          Alcotest.(check string) (proto.P.name ^ " positional-era forward")
            (Orb.Objref.to_string multi_target) (Orb.Objref.to_string r)
      | _ -> Alcotest.failf "%s: positional-era forward lost" proto.P.name)
    protocols

let test_text_message_is_a_line () =
  let bytes = P.text.P.encode_message (sample_request "l1 s\"x\"") in
  Alcotest.(check bool) "no newline" false (String.contains bytes '\n')

(* ---------------- framing through a channel ---------------- *)

let exchange_frames proto msgs =
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let port = listener.Orb.Transport.bound_port in
  let received = ref [] in
  let server =
    Thread.create
      (fun () ->
        let chan = listener.Orb.Transport.accept () in
        let comm = Orb.Communicator.wrap proto chan in
        List.iter (fun _ -> received := Orb.Communicator.recv comm :: !received) msgs;
        Orb.Communicator.close comm)
      ()
  in
  let chan = Orb.Transport.connect ~proto:"mem" ~host:"local" ~port in
  let comm = Orb.Communicator.wrap proto chan in
  List.iter (fun m -> Orb.Communicator.send comm m) msgs;
  Thread.join server;
  Orb.Communicator.close comm;
  listener.Orb.Transport.shutdown ();
  List.rev !received

let test_framing_preserves_message_boundaries () =
  List.iter
    (fun proto ->
      let msgs =
        [
          sample_request "payload-1";
          P.Reply
            { P.rep_id = 1; status = P.Status_ok; payload = "payload-2";
              nego_answer = "" };
          sample_request "";
        ]
      in
      let got = exchange_frames proto msgs in
      Alcotest.(check int) (proto.P.name ^ " count") 3 (List.length got);
      List.iter2
        (fun want have ->
          let payload = function
            | P.Request r -> r.P.payload
            | P.Reply r -> r.P.payload
            | P.Locate_request _ | P.Locate_reply _ | P.Locate_forward _ -> ""
          in
          Alcotest.(check string) proto.P.name (payload want) (payload have))
        msgs got)
    protocols

let test_giop_frame_header () =
  let proto = Giop.protocol () in
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let port = listener.Orb.Transport.bound_port in
  let t =
    Thread.create
      (fun () ->
        let chan = listener.Orb.Transport.accept () in
        let comm = Orb.Communicator.wrap proto chan in
        ignore (Orb.Communicator.send comm (sample_request "x"));
        Orb.Communicator.close comm)
      ()
  in
  let chan = Orb.Transport.connect ~proto:"mem" ~host:"local" ~port in
  let header = chan.Orb.Transport.read_line ~max:64 in
  Thread.join t;
  Alcotest.(check string) "magic" Giop.magic (String.sub header 0 (String.length Giop.magic));
  Alcotest.(check int) "header length" (String.length Giop.magic + 8) (String.length header);
  chan.Orb.Transport.close ();
  listener.Orb.Transport.shutdown ()

let test_hcx_frame_header () =
  (* HCX framing on the wire: one magic byte, an LEB128 length varint,
     then exactly [length] body bytes that decode as the message. *)
  let proto = P.hcx in
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let port = listener.Orb.Transport.bound_port in
  let msg = sample_request "frame-me" in
  let t =
    Thread.create
      (fun () ->
        let chan = listener.Orb.Transport.accept () in
        let comm = Orb.Communicator.wrap proto chan in
        Orb.Communicator.send comm msg;
        Orb.Communicator.close comm)
      ()
  in
  let chan = Orb.Transport.connect ~proto:"mem" ~host:"local" ~port in
  Alcotest.(check char) "magic byte" P.hcx_magic
    (chan.Orb.Transport.read_exact 1).[0];
  let len =
    let v = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      let b = Char.code (chan.Orb.Transport.read_exact 1).[0] in
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := b land 0x80 <> 0
    done;
    !v
  in
  let body = chan.Orb.Transport.read_exact len in
  Thread.join t;
  (match proto.P.decode_message body with
  | P.Request r -> Alcotest.(check string) "body decodes" "frame-me" r.P.payload
  | _ -> Alcotest.fail "wrong message kind");
  Alcotest.(check char) "body starts with the codec version byte" '\001'
    body.[0];
  chan.Orb.Transport.close ();
  listener.Orb.Transport.shutdown ()

let test_hcx_negative_frame_length () =
  (* A 9th length group with bit 6 set lands on bit 62, the sign bit of
     an OCaml int: the decoded length would be negative and slip past
     the [max_frame_bytes] test. It must fail as a protocol error on
     both transports, never reach the channel as a negative count. *)
  let hostile = String.make 1 P.hcx_magic ^ String.make 8 '\xff' ^ "\x40" in
  List.iter
    (fun (transport, host) ->
      let listener = Orb.Transport.listen ~proto:transport ~host ~port:0 in
      let port = listener.Orb.Transport.bound_port in
      let accepted = ref None in
      let t =
        Thread.create
          (fun () -> accepted := Some (listener.Orb.Transport.accept ()))
          ()
      in
      let chan = Orb.Transport.connect ~proto:transport ~host ~port in
      Thread.join t;
      let server = Orb.Communicator.wrap P.hcx (Option.get !accepted) in
      chan.Orb.Transport.write (hostile ^ String.make 64 'A');
      (match Orb.Communicator.recv_opt server with
      | exception P.Protocol_error _ -> ()
      | exception e ->
          Alcotest.failf "%s: expected Protocol_error, got %s" transport
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: negative frame length accepted" transport);
      chan.Orb.Transport.close ();
      Orb.Communicator.close server;
      listener.Orb.Transport.shutdown ())
    [ ("mem", "local"); ("tcp", "127.0.0.1") ]

let () =
  Alcotest.run "protocol"
    [
      ( "envelope",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "locate round-trip" `Quick test_locate_roundtrip;
          Alcotest.test_case "multi-endpoint request round-trip" `Quick
            test_multi_endpoint_request_roundtrip;
          Alcotest.test_case "malformed forward rejected" `Quick
            test_malformed_forward_rejected;
          Alcotest.test_case "payload encapsulation" `Quick test_payload_encapsulation;
          Alcotest.test_case "malformed messages" `Quick test_malformed_messages;
          Alcotest.test_case "bad target rejected" `Quick test_bad_target_rejected;
          Alcotest.test_case "text message is one line" `Quick test_text_message_is_a_line;
        ] );
      ( "service context",
        [
          Alcotest.test_case "trace-context round-trip" `Quick test_trace_ctx_roundtrip;
          Alcotest.test_case "old peer -> new decoder" `Quick test_old_peer_to_new_decoder;
          Alcotest.test_case "new peer -> old decoder" `Quick test_new_peer_to_old_decoder;
          Alcotest.test_case "deadline budget round-trip" `Quick test_budget_roundtrip;
          Alcotest.test_case "pre-budget peer -> new decoder" `Quick
            test_prebudget_peer_to_new_decoder;
          Alcotest.test_case "new peer -> pre-budget decoder" `Quick
            test_new_peer_to_prebudget_decoder;
          Alcotest.test_case "hostile budget slots rejected" `Quick
            test_hostile_budget_slots_rejected;
          Alcotest.test_case "empty context is the legacy encoding" `Quick
            test_empty_ctx_is_byte_identical_to_legacy;
          Alcotest.test_case "ctx without budget is one entry" `Quick
            test_ctx_without_budget_is_one_entry;
          Alcotest.test_case "old locate peer -> new decoder" `Quick
            test_old_locate_peer_to_new_decoder;
          Alcotest.test_case "new locate peer -> old decoder" `Quick
            test_new_locate_peer_to_old_decoder;
          Alcotest.test_case "no forward is the legacy encoding" `Quick
            test_no_forward_is_byte_identical_to_legacy;
        ] );
      ( "negotiation",
        [
          Alcotest.test_case "offer round-trip" `Quick test_nego_offer_roundtrip;
          Alcotest.test_case "answer round-trip + old decoder" `Quick
            test_nego_answer_roundtrip;
          Alcotest.test_case "deadline-era peer -> new decoder" `Quick
            test_deadline_era_peer_to_new_decoder;
          Alcotest.test_case "offer -> deadline-era decoder" `Quick
            test_offer_to_deadline_era_decoder;
          Alcotest.test_case "offer is one trailer entry" `Quick
            test_offer_is_one_trailer_entry;
          Alcotest.test_case "hostile nego slots rejected" `Quick
            test_hostile_nego_slots_rejected;
          Alcotest.test_case "Nego module" `Quick test_nego_module;
        ] );
      ( "trailer",
        [
          Alcotest.test_case "entry subsets x kinds x codecs" `Quick
            test_entry_matrix;
          Alcotest.test_case "hostile trailers rejected" `Quick
            test_hostile_trailers_rejected;
          Alcotest.test_case "unknown tags skipped" `Quick
            test_unknown_tags_skipped;
          Alcotest.test_case "new sender -> nego-era decoder" `Quick
            test_new_sender_to_nego_era_decoder;
          Alcotest.test_case "forward -> pre-trailer client" `Quick
            test_forward_to_pre_trailer_client;
        ] );
      ( "framing",
        [
          Alcotest.test_case "message boundaries" `Quick test_framing_preserves_message_boundaries;
          Alcotest.test_case "GIOP frame header" `Quick test_giop_frame_header;
          Alcotest.test_case "HCX frame header" `Quick test_hcx_frame_header;
          Alcotest.test_case "HCX negative frame length" `Quick
            test_hcx_negative_frame_length;
        ] );
    ]
