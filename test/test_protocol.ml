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
        Printf.sprintf "req %d %s %s %b %S ctx=%S budget=%s" r.P.req_id
          (Orb.Objref.to_string r.P.target)
          r.P.operation r.P.oneway r.P.payload r.P.trace_ctx
          (match r.P.budget_us with
          | None -> "-"
          | Some b -> string_of_int b)
    | P.Reply r ->
        Printf.sprintf "rep %d %s %S" r.P.rep_id
          (match r.P.status with
          | P.Status_ok -> "ok"
          | P.Status_user_exception id -> "exn " ^ id
          | P.Status_system_error m -> "err " ^ m)
          r.P.payload
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
   field up to and including the payload, nothing after. *)
let legacy_encode proto (r : P.request) =
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 0;
  e.Wire.Codec.put_ulong r.P.req_id;
  e.Wire.Codec.put_bool r.P.oneway;
  e.Wire.Codec.put_string (Orb.Objref.to_string r.P.target);
  e.Wire.Codec.put_string r.P.operation;
  e.Wire.Codec.put_string r.P.payload;
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

(* ---------------- deadline slot interop ---------------- *)

(* The deadline budget rides in a second trailing slot after the trace
   context; slots are positional, so a present budget forces the trace
   slot onto the wire even when empty. Pinned in both directions
   against "pre-budget" peers — the trace-ctx-era encoder/decoder. *)

(* The envelope exactly as trace-ctx-era (pre-budget) peers encoded it:
   legacy fields, then the context slot iff non-empty, never a budget. *)
let prebudget_encode proto (r : P.request) =
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 0;
  e.Wire.Codec.put_ulong r.P.req_id;
  e.Wire.Codec.put_bool r.P.oneway;
  e.Wire.Codec.put_string (Orb.Objref.to_string r.P.target);
  e.Wire.Codec.put_string r.P.operation;
  e.Wire.Codec.put_string r.P.payload;
  if r.P.trace_ctx <> "" then e.Wire.Codec.put_string r.P.trace_ctx;
  e.Wire.Codec.finish ()

(* ... and the matching pre-budget decoder: reads the context slot if
   bytes remain, then stops — a budget is trailing bytes it never
   touches. *)
let prebudget_decode proto bytes =
  let d = proto.P.codec.Wire.Codec.decoder bytes in
  let tag = d.Wire.Codec.get_octet () in
  let req_id = d.Wire.Codec.get_ulong () in
  let _oneway = d.Wire.Codec.get_bool () in
  let _target = d.Wire.Codec.get_string () in
  let operation = d.Wire.Codec.get_string () in
  let payload = d.Wire.Codec.get_string () in
  let trace_ctx =
    if d.Wire.Codec.at_end () then "" else d.Wire.Codec.get_string ()
  in
  (tag, req_id, operation, payload, trace_ctx)

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

let test_no_budget_is_byte_identical_to_prebudget () =
  (* A budget-capable encoder sending no budget produces the pre-budget
     encoding byte for byte — with and without a trace context. *)
  List.iter
    (fun proto ->
      List.iter
        (fun trace_ctx ->
          let r = ctx_request ~trace_ctx () in
          Alcotest.(check string)
            (proto.P.name ^ " ctx=" ^ trace_ctx)
            (prebudget_encode proto r)
            (proto.P.encode_message (P.Request r)))
        [ ""; "deadbeefdeadbeefdeadbeefdeadbeef-cafebabecafebabe" ])
    protocols

let test_prebudget_peer_to_new_decoder () =
  (* Bytes from a pre-budget peer: the new decoder reads them as "no
     deadline" instead of failing at end-of-message. *)
  List.iter
    (fun proto ->
      List.iter
        (fun trace_ctx ->
          let bytes = prebudget_encode proto (ctx_request ~trace_ctx ()) in
          match proto.P.decode_message bytes with
          | P.Request r ->
              Alcotest.(check (option int))
                (proto.P.name ^ " budget") None r.P.budget_us;
              Alcotest.(check string) (proto.P.name ^ " ctx") trace_ctx
                r.P.trace_ctx
          | _ -> Alcotest.fail "wrong message kind")
        [ ""; "deadbeefdeadbeefdeadbeefdeadbeef-cafebabecafebabe" ])
    protocols

let test_new_peer_to_prebudget_decoder () =
  (* Bytes WITH a budget, read by the pre-budget decoder: every field it
     knows about — including the trace context, which the budget forces
     onto the wire even when empty — decodes unchanged. *)
  List.iter
    (fun proto ->
      List.iter
        (fun trace_ctx ->
          let bytes =
            proto.P.encode_message
              (P.Request (ctx_request ~budget_us:750_000 ~trace_ctx ()))
          in
          let tag, req_id, operation, payload, ctx =
            prebudget_decode proto bytes
          in
          Alcotest.(check int) (proto.P.name ^ " tag") 0 tag;
          Alcotest.(check int) (proto.P.name ^ " req_id") 42 req_id;
          Alcotest.(check string) (proto.P.name ^ " op") "f" operation;
          Alcotest.(check string) (proto.P.name ^ " payload") "pay\008load"
            payload;
          Alcotest.(check string) (proto.P.name ^ " ctx") trace_ctx ctx)
        [ ""; "deadbeefdeadbeefdeadbeefdeadbeef-cafebabecafebabe" ])
    protocols

let test_hostile_budget_slots_rejected () =
  (* A damaged or hostile deadline slot must surface as Protocol_error
     (the recoverable "answer malformed-request and keep the
     connection" class), never a crash or a bogus deadline. *)
  List.iter
    (fun proto ->
      List.iter
        (fun hostile ->
          let e = proto.P.codec.Wire.Codec.encoder () in
          e.Wire.Codec.put_octet 0;
          e.Wire.Codec.put_ulong 7;
          e.Wire.Codec.put_bool false;
          e.Wire.Codec.put_string (Orb.Objref.to_string sample_target);
          e.Wire.Codec.put_string "f";
          e.Wire.Codec.put_string "payload";
          e.Wire.Codec.put_string "";  (* trace slot *)
          e.Wire.Codec.put_string hostile;
          match proto.P.decode_message (e.Wire.Codec.finish ()) with
          | exception P.Protocol_error _ -> ()
          | exception Wire.Codec.Type_error _ ->
              Alcotest.fail "Type_error leaked through decode_message"
          | _ ->
              Alcotest.failf "%s: hostile budget %S accepted" proto.P.name
                hostile)
        [ "-5"; "not-a-number"; "99999999999999999999999999999"; "1.5" ];
      (* The EMPTY slot is the one deliberate exception: the
         negotiation offer forces the budget position even when no
         deadline is set, so current decoders read [""] as [None]
         (peers that predate negotiation still reject it — see the
         interop tests). *)
      let e = proto.P.codec.Wire.Codec.encoder () in
      e.Wire.Codec.put_octet 0;
      e.Wire.Codec.put_ulong 7;
      e.Wire.Codec.put_bool false;
      e.Wire.Codec.put_string (Orb.Objref.to_string sample_target);
      e.Wire.Codec.put_string "f";
      e.Wire.Codec.put_string "payload";
      e.Wire.Codec.put_string "" (* trace slot *);
      e.Wire.Codec.put_string "" (* budget slot: forced empty *);
      match proto.P.decode_message (e.Wire.Codec.finish ()) with
      | P.Request r ->
          Alcotest.(check (option int))
            (proto.P.name ^ " empty budget decodes as None")
            None r.P.budget_us
      | _ -> Alcotest.failf "%s: empty budget slot did not decode" proto.P.name)
    protocols

(* ---------------- codec-negotiation slot interop ---------------- *)

(* The negotiation offer rides in a third trailing slot after the
   deadline budget; a present offer forces both earlier slots (the
   budget as the empty string when unset). Pinned in both directions
   against deadline-era peers. *)

(* The envelope exactly as deadline-era (pre-negotiation) peers decoded
   it: context slot if bytes remain, then a budget slot that must be a
   non-empty decimal — an empty budget is malformed to this decoder,
   which is precisely the signature the client's negotiation layer keys
   its re-send on. *)
let deadline_era_decode proto bytes =
  let d = proto.P.codec.Wire.Codec.decoder bytes in
  let tag = d.Wire.Codec.get_octet () in
  let req_id = d.Wire.Codec.get_ulong () in
  let _oneway = d.Wire.Codec.get_bool () in
  let _target = d.Wire.Codec.get_string () in
  let operation = d.Wire.Codec.get_string () in
  let payload = d.Wire.Codec.get_string () in
  let trace_ctx =
    if d.Wire.Codec.at_end () then "" else d.Wire.Codec.get_string ()
  in
  let budget_us =
    if d.Wire.Codec.at_end () then None
    else
      let s = d.Wire.Codec.get_string () in
      match int_of_string_opt s with
      | Some b when b >= 0 -> Some b
      | _ ->
          raise (P.Protocol_error (Printf.sprintf "malformed deadline slot %S" s))
  in
  (tag, req_id, operation, payload, trace_ctx, budget_us)

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

(* The envelope exactly as deadline-era peers encoded it: legacy
   fields, the context slot iff needed, the budget slot iff set —
   never an offer. *)
let deadline_era_encode proto (r : P.request) =
  let e = proto.P.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_octet 0;
  e.Wire.Codec.put_ulong r.P.req_id;
  e.Wire.Codec.put_bool r.P.oneway;
  e.Wire.Codec.put_string (Orb.Objref.to_string r.P.target);
  e.Wire.Codec.put_string r.P.operation;
  e.Wire.Codec.put_string r.P.payload;
  (match r.P.budget_us with
  | None -> if r.P.trace_ctx <> "" then e.Wire.Codec.put_string r.P.trace_ctx
  | Some b ->
      e.Wire.Codec.put_string r.P.trace_ctx;
      e.Wire.Codec.put_string (string_of_int b));
  e.Wire.Codec.finish ()

let test_no_offer_is_byte_identical_to_prenego () =
  (* The backward-compatibility invariant: with no offer, the
     negotiation-era encoder produces the deadline-era encoding byte for
     byte, for every context/budget combination. *)
  List.iter
    (fun proto ->
      List.iter
        (fun (budget_us, trace_ctx) ->
          let r = ctx_request ?budget_us ~trace_ctx () in
          Alcotest.(check string)
            (Printf.sprintf "%s ctx=%S budget=%s" proto.P.name trace_ctx
               (match budget_us with None -> "-" | Some b -> string_of_int b))
            (deadline_era_encode proto r)
            (proto.P.encode_message (P.Request r)))
        [ (None, ""); (None, "cafe-babe"); (Some 750, ""); (Some 750, "cafe-babe") ])
    protocols

let test_offer_forces_slots () =
  (* A present offer forces the context and budget positions onto the
     wire — the budget as the empty string when unset — so the offer is
     always the third slot. *)
  List.iter
    (fun proto ->
      let bytes =
        proto.P.encode_message
          (P.Request (nego_request ~offer:"hcx/1" ()))
      in
      let d = proto.P.codec.Wire.Codec.decoder bytes in
      ignore (d.Wire.Codec.get_octet ());
      ignore (d.Wire.Codec.get_ulong ());
      ignore (d.Wire.Codec.get_bool ());
      ignore (d.Wire.Codec.get_string ());
      ignore (d.Wire.Codec.get_string ());
      ignore (d.Wire.Codec.get_string ());
      Alcotest.(check string) (proto.P.name ^ " forced ctx") ""
        (d.Wire.Codec.get_string ());
      Alcotest.(check string) (proto.P.name ^ " forced empty budget") ""
        (d.Wire.Codec.get_string ());
      Alcotest.(check string) (proto.P.name ^ " offer slot") "hcx/1"
        (d.Wire.Codec.get_string ());
      Alcotest.(check bool) (proto.P.name ^ " nothing after offer") true
        (d.Wire.Codec.at_end ()))
    protocols

let test_offer_to_deadline_era_decoder () =
  (* Offer-less messages decode fine on a deadline-era peer; an
     offer-carrying message with no budget trips its malformed-deadline
     check — recoverably, with the exact signature the client's
     negotiation layer re-sends on. A message with BOTH a budget and an
     offer decodes its known fields and only trips on the trailing
     offer, which that decoder never reads. *)
  List.iter
    (fun proto ->
      let plain = proto.P.encode_message (P.Request (ctx_request ~budget_us:500 ~trace_ctx:"" ())) in
      let _, _, _, _, _, budget = deadline_era_decode proto plain in
      Alcotest.(check (option int)) (proto.P.name ^ " plain budget") (Some 500) budget;
      let offered =
        proto.P.encode_message (P.Request (nego_request ~offer:"hcx/1" ()))
      in
      match deadline_era_decode proto offered with
      | exception P.Protocol_error m ->
          Alcotest.(check bool)
            (proto.P.name ^ " malformed-deadline signature")
            true
            (let needle = "malformed deadline slot" in
             let rec find i =
               i + String.length needle <= String.length m
               && (String.sub m i (String.length needle) = needle || find (i + 1))
             in
             find 0)
      | _ ->
          Alcotest.failf "%s: deadline-era peer accepted the forced-empty budget"
            proto.P.name)
    protocols

let test_hostile_nego_slots_rejected () =
  (* Oversized or charset-violating negotiation slots fail as
     recoverable protocol errors before any token is interpreted. *)
  List.iter
    (fun proto ->
      List.iter
        (fun hostile ->
          let e = proto.P.codec.Wire.Codec.encoder () in
          e.Wire.Codec.put_octet 0;
          e.Wire.Codec.put_ulong 7;
          e.Wire.Codec.put_bool false;
          e.Wire.Codec.put_string (Orb.Objref.to_string sample_target);
          e.Wire.Codec.put_string "f";
          e.Wire.Codec.put_string "payload";
          e.Wire.Codec.put_string "" (* trace slot *);
          e.Wire.Codec.put_string "" (* budget slot *);
          e.Wire.Codec.put_string hostile;
          match proto.P.decode_message (e.Wire.Codec.finish ()) with
          | exception P.Protocol_error _ -> ()
          | exception Wire.Codec.Type_error _ ->
              Alcotest.fail "Type_error leaked through decode_message"
          | _ ->
              Alcotest.failf "%s: hostile offer %S accepted" proto.P.name hostile)
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
    [ "bogus"; "hcx/"; "/1"; "hcx/9x"; "hcx/-1"; "hcx/99999999999999999999" ];
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
          Alcotest.test_case "no budget is the pre-budget encoding" `Quick
            test_no_budget_is_byte_identical_to_prebudget;
          Alcotest.test_case "pre-budget peer -> new decoder" `Quick
            test_prebudget_peer_to_new_decoder;
          Alcotest.test_case "new peer -> pre-budget decoder" `Quick
            test_new_peer_to_prebudget_decoder;
          Alcotest.test_case "hostile budget slots rejected" `Quick
            test_hostile_budget_slots_rejected;
          Alcotest.test_case "empty context is the legacy encoding" `Quick
            test_empty_ctx_is_byte_identical_to_legacy;
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
          Alcotest.test_case "no offer is the deadline-era encoding" `Quick
            test_no_offer_is_byte_identical_to_prenego;
          Alcotest.test_case "offer forces earlier slots" `Quick
            test_offer_forces_slots;
          Alcotest.test_case "offer -> deadline-era decoder" `Quick
            test_offer_to_deadline_era_decoder;
          Alcotest.test_case "hostile nego slots rejected" `Quick
            test_hostile_nego_slots_rejected;
          Alcotest.test_case "Nego module" `Quick test_nego_module;
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
