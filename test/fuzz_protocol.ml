(* Deterministic wire-protocol fuzzer, run against a LIVE server.
   [test_fuzz.ml] already feeds random bytes to the decoders offline;
   this driver attacks the whole serving stack — framing, decode
   limits, admission, error replies — the way a hostile peer would:

     take a valid frame, mutate its body (truncate / bit-flip /
     length-inflate / token-swap / oversize), frame it honestly, write
     it to a real connection, then prove the server is still alive by
     completing a Locate_request on the same connection under a
     deadline (a hang is a failure, not a timeout to shrug off).

   Every mutation is derived from [Random.State.make [| seed; proto;
   i |]], so a failing iteration replays exactly with
   [--seed S --count N]. Low-probability frame-HEADER damage is also
   thrown at the binary protocol; there the connection is allowed (and
   expected) to close, and the prover reconnects — what must never
   happen is the server dying or wedging.

   Exit status 0 = server survived everything; 1 = a probe failed. *)

let usage = "fuzz_protocol [--count N] [--seed N] [--verbose]"

let count = ref 500 (* mutations per protocol *)
let seed = ref 42
let verbose = ref false

let () =
  Arg.parse
    [
      ("--count", Arg.Set_int count, "mutations per protocol (default 500)");
      ("--seed", Arg.Set_int seed, "PRNG seed (default 42)");
      ("--verbose", Arg.Set verbose, "log each mutation");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:"IDL:Fuzz/Echo:1.0"
    [
      ( "echo",
        fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ())
      );
    ]

(* Tight decode budget so the mutations actually cross the limits:
   hostile lengths, deep nesting and oversized frames must all be
   answerable without the server allocating what the frame claims. *)
let fuzz_limits =
  {
    Wire.Codec.max_frame_bytes = 8 * 1024;
    max_string_bytes = 1024;
    max_sequence_length = 256;
    max_nesting_depth = 8;
  }

let fuzz_policy =
  { Orb.default_server_policy with limits = fuzz_limits }

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

type mutation =
  | Truncate
  | Bit_flip
  | Length_inflate
  | Token_swap
  | Oversize
  | Header_damage  (* binary framing only: damage the frame header *)
  | Trailer_hostile  (* well-formed envelope, purpose-built trailer *)
  | Varint_overlong  (* varint framing only: 10-group length prefix *)
  | Varint_negative  (* varint framing only: 9th group sets bit 62 *)
  | Varint_truncate  (* varint framing only: body cut mid-varint *)
  | Version_bogus  (* varint framing only: stomp the codec version byte *)

let mutation_name = function
  | Truncate -> "truncate"
  | Bit_flip -> "bit-flip"
  | Length_inflate -> "length-inflate"
  | Token_swap -> "token-swap"
  | Oversize -> "oversize"
  | Header_damage -> "header-damage"
  | Trailer_hostile -> "trailer-hostile"
  | Varint_overlong -> "varint-overlong"
  | Varint_negative -> "varint-negative"
  | Varint_truncate -> "varint-truncate"
  | Version_bogus -> "version-bogus"

(* The attacker's claim of a 4-billion-element payload: the decode
   limits must refuse it without allocating it. Text protocol: splice
   the digits into a [#len] token; binary: stomp 4 bytes with 0xff
   (reads back as ulong 4294967295 wherever a length lands). *)
let inflate_length ~binary rng body =
  let n = String.length body in
  if n = 0 then body
  else if binary then begin
    let b = Bytes.of_string body in
    let pos = Random.State.int rng n in
    for i = pos to min (n - 1) (pos + 3) do
      Bytes.set b i '\xff'
    done;
    Bytes.to_string b
  end
  else
    match String.index_opt body '#' with
    | Some _ ->
        (* Replace the digit run after some '#' with the hostile count. *)
        let hashes =
          List.filter (fun j -> body.[j] = '#') (List.init n Fun.id)
        in
        let i = List.nth hashes (Random.State.int rng (List.length hashes)) in
        let j = ref (i + 1) in
        while
          !j < n && (match body.[!j] with '0' .. '9' -> true | _ -> false)
        do
          incr j
        done;
        String.sub body 0 (i + 1)
        ^ "4294967295"
        ^ String.sub body !j (n - !j)
    | None -> body ^ "#4294967295"

let mutate ~binary rng m body =
  let n = String.length body in
  match m with
  | Truncate -> if n = 0 then body else String.sub body 0 (Random.State.int rng n)
  | Bit_flip ->
      if n = 0 then body
      else begin
        let b = Bytes.of_string body in
        for _ = 1 to 1 + Random.State.int rng 8 do
          let pos = Random.State.int rng n in
          let bit = Random.State.int rng 8 in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)))
        done;
        Bytes.to_string b
      end
  | Length_inflate -> inflate_length ~binary rng body
  | Token_swap ->
      if n < 4 then body
      else begin
        (* Swap two equal-length slices: structurally plausible bytes in
           structurally wrong places. *)
        let len = 1 + Random.State.int rng (max 1 (n / 4)) in
        let a = Random.State.int rng (n - len + 1) in
        let b = Random.State.int rng (n - len + 1) in
        let lo, hi = (min a b, max a b) in
        if lo + len > hi then body
        else
          String.sub body 0 lo
          ^ String.sub body hi len
          ^ String.sub body (lo + len) (hi - lo - len)
          ^ String.sub body lo len
          ^ String.sub body (hi + len) (n - hi - len)
      end
  | Oversize ->
      (* Honest framing of a body past [max_frame_bytes]: the server
         must discard it in bounded chunks and answer, not buffer it. *)
      body ^ String.make (2 * fuzz_limits.Wire.Codec.max_frame_bytes) 'A'
  | Header_damage -> body (* handled at the framing layer *)
  | Trailer_hostile -> body (* the bodies are purpose-built, not mutated *)
  | Varint_overlong | Varint_negative ->
      body (* handled at the framing layer *)
  | Varint_truncate ->
      (* Cut at a random point and end on a continuation bit: some
         varint inside the body now promises bytes that never come. *)
      if n = 0 then body
      else String.sub body 0 (Random.State.int rng n) ^ "\xff"
  | Version_bogus ->
      (* The HCX envelope leads with its version byte: stomp it with a
         version nobody ships. *)
      if n = 0 then body
      else begin
        let b = Bytes.of_string body in
        Bytes.set b 0 (Char.chr (2 + Random.State.int rng 254));
        Bytes.to_string b
      end

(* ------------------------------------------------------------------ *)
(* Framing (mirrors Communicator.send, which refuses hostile bodies)   *)
(* ------------------------------------------------------------------ *)

let uvarint n =
  let buf = Buffer.create 4 in
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n);
  Buffer.contents buf

(* [style]: [`Honest] frames the (mutated) body truthfully so the
   stream stays synchronized; [`Damage] corrupts the frame header
   itself; [`Overlong] (varint framing) sends a length prefix of ten
   continuation groups — more than any honest encoder can produce, so
   the server must kill the connection rather than guess; [`Negative]
   (varint framing) sends nine groups whose last one sets bit 62, a
   length that would decode negative. *)
let frame proto ~style rng body =
  match proto.Orb.Protocol.framing with
  | Orb.Protocol.Line ->
      (* The terminating newline keeps the stream line-synchronized no
         matter what the mutation did (inner newlines just split the
         body into several hostile frames). *)
      body ^ "\n"
  | Orb.Protocol.Length_prefixed { header } -> (
      match style with
      | `Damage ->
          let h =
            Bytes.of_string
              (Printf.sprintf "%s%08x" header (String.length body))
          in
          let pos = Random.State.int rng (Bytes.length h) in
          Bytes.set h pos (Char.chr (Random.State.int rng 256));
          Bytes.to_string h ^ "\n" ^ body
      | `Honest | `Overlong | `Negative ->
          (* Honest header for the (mutated) body, so the stream stays
             synchronized and the server can keep the connection. *)
          Printf.sprintf "%s%08x\n%s" header (String.length body) body)
  | Orb.Protocol.Varint_prefixed { magic } -> (
      match style with
      | `Damage ->
          let h =
            Bytes.of_string
              (String.make 1 magic ^ uvarint (String.length body))
          in
          let pos = Random.State.int rng (Bytes.length h) in
          Bytes.set h pos (Char.chr (Random.State.int rng 256));
          Bytes.to_string h ^ body
      | `Overlong -> String.make 1 magic ^ String.make 10 '\xff' ^ "\x01" ^ body
      | `Negative -> String.make 1 magic ^ String.make 8 '\xff' ^ "\x40" ^ body
      | `Honest -> String.make 1 magic ^ uvarint (String.length body) ^ body)

(* ------------------------------------------------------------------ *)
(* The liveness prover                                                 *)
(* ------------------------------------------------------------------ *)

exception Probe_failed of string

(* One attacker connection: a raw channel for writing hostile frames
   plus a communicator over the same channel for well-formed traffic. *)
type attacker = { chan : Orb.Transport.channel; comm : Orb.Communicator.t }

let connect_proto proto ~port () =
  let chan = Orb.Transport.connect ~proto:"mem" ~host:"local" ~port in
  { chan; comm = Orb.Communicator.wrap proto chan }

(* Complete a Locate_request on [a] under [deadline] seconds: skip any
   error replies the server owed us for earlier hostile frames, accept
   only our locate reply. *)
let probe a target ~req_id ~deadline =
  Tutil.with_watchdog ~seconds:deadline ~what:"probe"
    ~on_expiry:(fun () -> Orb.Communicator.close a.comm)
    (fun () ->
      Orb.Communicator.send a.comm (Orb.Protocol.Locate_request { req_id; target });
      let rec await budget =
        if budget = 0 then failwith "probe: reply flood without locate reply";
        match Orb.Communicator.recv a.comm with
        | Orb.Protocol.Locate_reply { rep_id; found; _ } when rep_id = req_id ->
            if not found then failwith "probe: object vanished";
            ()
        | _ -> await (budget - 1)
      in
      await 64)

(* The status of the reply to request [req_id] on [a], skipping the
   replies owed for earlier frames, under [deadline] seconds. *)
let answer a ~req_id ~deadline =
  Tutil.with_watchdog ~seconds:deadline ~what:"answer"
    ~on_expiry:(fun () -> Orb.Communicator.close a.comm)
    (fun () ->
      let rec await budget =
        if budget = 0 then failwith "answer: reply flood without our reply";
        match Orb.Communicator.recv a.comm with
        | Orb.Protocol.Reply { rep_id; status; _ } when rep_id = req_id -> status
        | _ -> await (budget - 1)
      in
      await 64)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable sent : int;
  mutable reconnects : int;
  mutable error_replies : int;
}

let run_proto ~ptag (pname, proto) =
  let server =
    Orb.create ~protocol:proto ~transport:"mem" ~host:"local"
      ~server_policy:fuzz_policy ()
  in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let client = Orb.create ~protocol:proto ~transport:"mem" ~host:"local" () in
  let port = Orb.port server in
  (* The well-formed end-to-end check: the server must not only answer
     probes but still dispatch real calls correctly. *)
  let check_echo tag =
    match
      Orb.invoke client target ~op:"echo" (fun e ->
          e.Wire.Codec.put_string tag)
    with
    | Some d ->
        let got = d.Wire.Codec.get_string () in
        if got <> "echo:" ^ tag then
          raise (Probe_failed (Printf.sprintf "echo corrupted: %S" got))
    | None -> raise (Probe_failed "echo returned no reply")
    | exception e ->
        raise
          (Probe_failed
             (Printf.sprintf "echo failed after fuzzing: %s"
                (Printexc.to_string e)))
  in
  check_echo "before";
  (* Baseline bodies the mutations start from: a request with a string
     + sequence payload (lengths for the inflater to find) and a locate
     request (minimal envelope). *)
  let payload =
    let e = proto.Orb.Protocol.codec.Wire.Codec.encoder () in
    e.Wire.Codec.put_string "hello fuzz";
    e.Wire.Codec.put_len 3;
    e.Wire.Codec.put_long 1;
    e.Wire.Codec.put_long 2;
    e.Wire.Codec.put_long 3;
    e.Wire.Codec.finish ()
  in
  let bases =
    [|
      proto.Orb.Protocol.encode_message
        (Orb.Protocol.Request
           {
             req_id = 7;
             target;
             operation = "echo";
             oneway = false;
             payload;
             trace_ctx = "";
             budget_us = None;
             nego_offer = "";
           });
      proto.Orb.Protocol.encode_message
        (Orb.Protocol.Locate_request { req_id = 9; target });
    |]
  in
  (* Purpose-built trailers on an otherwise well-formed echo request,
     each with the answer it must get: [`Served] (the echo, the
     trailer's unknown or unusable parts ignored) or [`Refused] (a
     malformed-request error reply, the connection kept). A first
     trailing string without the format byte is a positional-era trace
     context, so it is served. *)
  let trailer_cases =
    let entry tag v =
      let b = Buffer.create 8 in
      Buffer.add_char b tag;
      Buffer.add_uint16_be b (String.length v);
      Buffer.add_string b v;
      Buffer.contents b
    in
    let t entries = "~" ^ String.concat "" entries in
    [|
      (`Served, entry 'c' "a-b" (* missing format byte *));
      (`Served, "!" ^ entry 'b' "5" (* wrong format byte *));
      (`Served, t [ entry 'z' "future"; entry 'Q' ""; entry 'b' "900000000" ]);
      (`Served, t (List.init 8 (fun i -> entry (Char.chr (65 + i)) "x")));
      (`Served, t [ entry 'o' "////,,,," ]);
      (`Served, t [ entry 'o' "hcx/99999999999999999999" ]);
      (`Refused, "~c" (* truncated entry *));
      (`Refused, "~c\000\005ab" (* length past the end *));
      (`Refused, t [ entry 'b' "900000000"; entry 'b' "900000000" ]);
      (`Refused, t (List.init 9 (fun _ -> entry 'z' "")));
      (`Refused, t [ entry 'o' (String.make 300 'a') ]);
      (`Refused, t [ entry 'o' "hcx/\001\002" ]);
      (`Refused, t [ entry 'o' "hcx/1,\"; exec evil" ]);
      (`Refused, t [ entry 'b' "-1" ]);
      (`Refused, t [ entry 'b' "0x10" ]);
      (`Refused, t [ entry 'b' "99999999999999999999999999999" ]);
      (`Refused, t [ entry 'c' (String.make 100 'a' ^ "-b") ]);
    |]
  in
  let trailer_body ~req_id trailing =
    let e = proto.Orb.Protocol.codec.Wire.Codec.encoder () in
    e.Wire.Codec.put_octet 0;
    e.Wire.Codec.put_ulong req_id;
    e.Wire.Codec.put_bool false;
    e.Wire.Codec.put_string (Orb.Objref.to_string target);
    e.Wire.Codec.put_string "echo";
    e.Wire.Codec.put_string payload;
    e.Wire.Codec.put_string trailing;
    e.Wire.Codec.finish ()
  in
  let binary =
    match proto.Orb.Protocol.framing with
    | Orb.Protocol.Line -> false
    | Orb.Protocol.Length_prefixed _ | Orb.Protocol.Varint_prefixed _ -> true
  in
  let mutations =
    match proto.Orb.Protocol.framing with
    | Orb.Protocol.Line ->
        [| Truncate; Bit_flip; Length_inflate; Token_swap; Oversize;
           Trailer_hostile |]
    | Orb.Protocol.Length_prefixed _ ->
        [|
          Truncate; Bit_flip; Length_inflate; Token_swap; Oversize;
          Header_damage; Trailer_hostile;
        |]
    | Orb.Protocol.Varint_prefixed _ ->
        [|
          Truncate; Bit_flip; Length_inflate; Token_swap; Oversize;
          Header_damage; Trailer_hostile; Varint_overlong;
          Varint_negative; Varint_truncate; Version_bogus;
        |]
  in
  let tally = { sent = 0; reconnects = 0; error_replies = 0 } in
  let a = ref (connect_proto proto ~port ()) in
  let reconnect () =
    (try Orb.Communicator.close (!a).comm with _ -> ());
    tally.reconnects <- tally.reconnects + 1;
    a := connect_proto proto ~port ()
  in
  let before = Orb.stats server in
  for i = 0 to !count - 1 do
    let rng = Random.State.make [| !seed; ptag; i |] in
    let m = mutations.(Random.State.int rng (Array.length mutations)) in
    let body, expect =
      match m with
      | Trailer_hostile ->
          let want, trailing =
            trailer_cases.(Random.State.int rng (Array.length trailer_cases))
          in
          let req_id = 300_000 + i in
          (trailer_body ~req_id trailing, Some (req_id, want))
      | _ -> (bases.(Random.State.int rng (Array.length bases)), None)
    in
    let style =
      match m with
      | Header_damage -> `Damage
      | Varint_overlong -> `Overlong
      | Varint_negative -> `Negative
      | _ -> `Honest
    in
    let hostile = frame proto ~style rng (mutate ~binary rng m body) in
    if !verbose then
      Printf.printf "[%s %4d] %-14s %d bytes\n%!" pname i (mutation_name m)
        (String.length hostile);
    (match (!a).chan.Orb.Transport.write hostile with
    | () -> ()
    | exception _ ->
        (* The server closed this connection after earlier damage and
           the write noticed; start a fresh one and resend. *)
        reconnect ();
        (try (!a).chan.Orb.Transport.write hostile with _ -> reconnect ()));
    (* A purpose-built trailer must get its own answer. Earlier damage
       may have left the server reading our frame as the rest of a
       body, so one miss earns a resend on a fresh connection. *)
    (match expect with
    | None -> ()
    | Some (req_id, want) ->
        let status =
          match answer !a ~req_id ~deadline:0.4 with
          | st -> st
          | exception _ ->
              reconnect ();
              (!a).chan.Orb.Transport.write hostile;
              answer !a ~req_id ~deadline:2.0
        in
        let got =
          match status with
          | Orb.Protocol.Status_ok -> `Served
          | Orb.Protocol.Status_user_exception _
          | Orb.Protocol.Status_system_error _ -> `Refused
        in
        if got <> want then
          raise
            (Probe_failed
               (Printf.sprintf "%s iteration %d (seed %d): trailer %s, not %s: %s"
                  pname i !seed
                  (if got = `Served then "served" else "refused")
                  (if want = `Served then "served" else "refused")
                  (Orb.Protocol.status_to_string status))));
    (* Liveness: the same connection must still answer (the server
       either replied with an error or consumed the frame), or — when
       the damage was fatal for the connection — a fresh connection
       must. A deadline expiry on the fresh connection is a wedged
       server: FAIL. The dirty-connection deadline is short: a damaged
       header can legitimately leave the server waiting for body bytes
       that never come (our probe gets eaten as body), and that costs
       this full deadline before the reconnect proves liveness. *)
    (match probe !a target ~req_id:(100_000 + i) ~deadline:0.4 with
    | () -> ()
    | exception _ ->
        reconnect ();
        (match probe !a target ~req_id:(200_000 + i) ~deadline:2.0 with
        | () -> ()
        | exception e ->
            raise
              (Probe_failed
                 (Printf.sprintf
                    "%s iteration %d (%s, seed %d): server unreachable on a \
                     fresh connection: %s"
                    pname i (mutation_name m) !seed (Printexc.to_string e)))));
    tally.sent <- tally.sent + 1;
    if i mod 50 = 49 then check_echo (Printf.sprintf "mid-%d" i)
  done;
  check_echo "after";
  let after = Orb.stats server in
  tally.error_replies <- after.Orb.served - before.Orb.served;
  Printf.printf
    "%-6s %5d hostile frames: survived (reconnects %d, rejected %d, served %d)\n%!"
    pname tally.sent tally.reconnects
    (after.Orb.rejected - before.Orb.rejected)
    (after.Orb.served - before.Orb.served);
  Orb.shutdown client;
  Orb.shutdown server

(* ------------------------------------------------------------------ *)
(* Client-mux fuzzing: hostile locate replies and forwards             *)
(* ------------------------------------------------------------------ *)

(* The stage above attacks the SERVER with hostile requests; this one
   attacks the CLIENT's reply demultiplexer with hostile locate-layer
   frames — the new surface the replication work opened up. A "replica"
   that answers every request with a damaged [Locate_forward] /
   [Locate_reply] (truncated forward objref, rep_id matching nothing)
   must cost the client exactly one connection: the tainted one. A call
   pipelined to a HEALTHY replica over its own connection at the same
   moment must complete untouched — the mux may never kill across
   connections. *)

type client_mutation =
  | Fwd_truncated_objref  (* Locate_forward whose target won't parse *)
  | Fwd_bogus_rep_id  (* well-formed forward for a rep_id nobody sent *)
  | Locreply_truncated_forward  (* Locate_reply, damaged forward slot *)
  | Locreply_bogus_rep_id  (* well-formed locate reply, orphan rep_id *)

let client_mutation_name = function
  | Fwd_truncated_objref -> "fwd-truncated-objref"
  | Fwd_bogus_rep_id -> "fwd-bogus-rep-id"
  | Locreply_truncated_forward -> "locreply-truncated-fwd"
  | Locreply_bogus_rep_id -> "locreply-bogus-rep-id"

let valid_forward_string =
  Orb.Objref.to_string
    (Orb.Objref.make ~proto:"tcp" ~host:"nowhere" ~port:1 ~oid:"1"
       ~type_id:"IDL:Fuzz/Echo:1.0")

let hostile_locate_body proto kind ~req_id =
  let e = proto.Orb.Protocol.codec.Wire.Codec.encoder () in
  (match kind with
  | Fwd_truncated_objref ->
      e.Wire.Codec.put_octet 4;
      e.Wire.Codec.put_ulong req_id;
      e.Wire.Codec.put_string "@tcp:h"
  | Fwd_bogus_rep_id ->
      e.Wire.Codec.put_octet 4;
      e.Wire.Codec.put_ulong (req_id + 555_000);
      e.Wire.Codec.put_string valid_forward_string
  | Locreply_truncated_forward ->
      e.Wire.Codec.put_octet 3;
      e.Wire.Codec.put_ulong req_id;
      e.Wire.Codec.put_bool true;
      e.Wire.Codec.put_string "@tcp"
  | Locreply_bogus_rep_id ->
      e.Wire.Codec.put_octet 3;
      e.Wire.Codec.put_ulong (req_id + 555_000);
      e.Wire.Codec.put_bool true);
  e.Wire.Codec.finish ()

(* A replica gone hostile: speaks honest framing, answers every request
   with the mutation currently selected by [kind]. *)
let start_hostile_replica proto kind =
  let listener = Orb.Transport.listen ~proto:"mem" ~host:"local" ~port:0 in
  let rng = Random.State.make [| !seed |] in
  let serve chan =
    let comm = Orb.Communicator.wrap proto chan in
    try
      while true do
        match Orb.Communicator.recv comm with
        | Orb.Protocol.Request { Orb.Protocol.req_id; _ }
        | Orb.Protocol.Locate_request { req_id; _ } ->
            chan.Orb.Transport.write
              (frame proto ~style:`Honest rng
                 (hostile_locate_body proto !kind ~req_id))
        | _ -> ()
      done
    with _ -> ( try chan.Orb.Transport.close () with _ -> ())
  in
  ignore
    (Thread.create
       (fun () ->
         try
           while true do
             let chan = listener.Orb.Transport.accept () in
             ignore (Thread.create serve chan)
           done
         with _ -> ())
       ());
  listener

let run_client_mux (pname, proto) =
  let healthy =
    Orb.create ~protocol:proto ~transport:"mem" ~host:"local" ()
  in
  Orb.start healthy;
  let healthy_target =
    Orb.export healthy
      (Orb.Skeleton.create ~type_id:"IDL:Fuzz/Echo:1.0"
         [
           ( "slow",
             fun _ results ->
               Thread.delay 0.02;
               results.Wire.Codec.put_string "slow-done" );
           ("echo", fun _ results -> results.Wire.Codec.put_string "ok");
         ])
  in
  let kind = ref Fwd_truncated_objref in
  let listener = start_hostile_replica proto kind in
  let hostile_target =
    Orb.Objref.make ~proto:"mem" ~host:"local"
      ~port:listener.Orb.Transport.bound_port ~oid:"666"
      ~type_id:"IDL:Fuzz/Echo:1.0"
  in
  (* No retries (each hostile exchange must surface) and a breaker that
     never opens (every iteration must reach the wire). *)
  let client =
    Orb.create ~protocol:proto ~transport:"mem" ~host:"local"
      ~retry:{ Orb.Retry.default with max_attempts = 1 }
      ~breaker:{ Orb.Breaker.default_config with failure_threshold = 1_000_000 }
      ()
  in
  let kinds =
    [|
      Fwd_truncated_objref; Fwd_bogus_rep_id; Locreply_truncated_forward;
      Locreply_bogus_rep_id;
    |]
  in
  let iters = max (Array.length kinds) (!count / 25) in
  for i = 0 to iters - 1 do
    kind := kinds.(i mod Array.length kinds);
    if !verbose then
      Printf.printf "[%s mux %3d] %s\n%!" pname i (client_mutation_name !kind);
    (* A call in flight on the healthy replica's connection while the
       tainted one dies: it must land, not become collateral damage. *)
    let slow_result = ref `Pending in
    let waiter =
      Thread.create
        (fun () ->
          slow_result :=
            match
              Orb.invoke client healthy_target ~op:"slow" (fun _ -> ())
            with
            | Some d -> `Got (d.Wire.Codec.get_string ())
            | None -> `Err "no reply"
            | exception e -> `Err (Printexc.to_string e))
        ()
    in
    Thread.delay 0.005;
    (match
       Orb.invoke client hostile_target ~op:"echo" ~timeout:5.0 (fun e ->
           e.Wire.Codec.put_string "x")
     with
    | _ ->
        raise
          (Probe_failed
             (Printf.sprintf "%s mux iteration %d (%s): hostile frame accepted"
                pname i (client_mutation_name !kind)))
    | exception (Probe_failed _ as e) -> raise e
    | exception _ -> ());
    Thread.join waiter;
    (match !slow_result with
    | `Got "slow-done" -> ()
    | `Got other ->
        raise
          (Probe_failed
             (Printf.sprintf "%s mux iteration %d: healthy reply corrupted: %S"
                pname i other))
    | `Pending | `Err _ ->
        raise
          (Probe_failed
             (Printf.sprintf
                "%s mux iteration %d (%s): call on the HEALTHY replica was \
                 collateral damage: %s"
                pname i (client_mutation_name !kind)
                (match !slow_result with `Err m -> m | _ -> "no result"))));
    (* And the healthy connection still pipelines fresh calls. *)
    match Orb.invoke client healthy_target ~op:"echo" (fun _ -> ()) with
    | Some d when d.Wire.Codec.get_string () = "ok" -> ()
    | _ ->
        raise
          (Probe_failed
             (Printf.sprintf "%s mux iteration %d: healthy replica unreachable"
                pname i))
  done;
  (* The client never tore down the healthy replica's connection: the
     server still holds exactly the one it accepted. *)
  let sc = (Orb.stats healthy).Orb.server_connections in
  if sc <> 1 then
    raise
      (Probe_failed
         (Printf.sprintf
            "%s: healthy replica holds %d connections, want 1 — the mux \
             killed across connections"
            pname sc));
  Printf.printf
    "%-6s %5d hostile locate frames: only tainted connections died\n%!" pname
    iters;
  listener.Orb.Transport.shutdown ();
  Orb.shutdown client;
  Orb.shutdown healthy

let () =
  let protos =
    [
      ("text", Orb.Protocol.text);
      ("giop", Giop.protocol ());
      ("hcx", Orb.Protocol.hcx);
    ]
  in
  match
    List.iteri (fun ptag p -> run_proto ~ptag:(ptag + 1) p) protos;
    List.iter run_client_mux protos
  with
  | () -> ()
  | exception Probe_failed msg ->
      prerr_endline ("FUZZ FAILURE: " ^ msg);
      exit 1
