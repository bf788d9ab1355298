(* Protocol swap: the same stubs and skeletons over two wire protocols.

   Section 2 of the paper argues the ORB protocol should be configurable:
   standard protocols are "expensive to use because they are designed for
   generality", while "for many applications, a simple protocol or
   messaging format may suffice". Here the identical generated code runs
   over (a) the HeidiRMI newline-terminated text protocol and (b) the
   GIOP-like binary protocol — only the Protocol.t handed to Orb.create
   changes.

   The example also shows the paper's favourite debugging trick
   (Section 4.2): because the text protocol is a line of ASCII, a "human
   client" can open a raw connection to the bootstrap port and type a
   request in by hand — here we do exactly that over the raw transport.

   Run with: dune exec examples/protocol_swap.exe *)

open Heidi_rmi

let hexdump s =
  let buf = Buffer.create 128 in
  String.iteri
    (fun i c ->
      if i > 0 && i mod 16 = 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (Printf.sprintf "%02x " (Char.code c)))
    s;
  Buffer.contents buf

let demo protocol label =
  Printf.printf "=== %s ===\n" label;
  let server = Orb.create ~protocol () in
  Orb.start server;
  let camera = Orb.export server
      (Heidi_Camera.skeleton
         {
           Heidi_Camera.attach = (fun _ () -> ());
           describe =
             (fun () -> { name = "cam"; bitrate_kbps = 750; live = true });
           zoom = (fun _ () -> ());
           hint = (fun _ () -> ());
           get_state = (fun () -> Start);
         })
  in
  let client = Orb.create ~protocol () in
  let stub = Heidi_Camera.Stub.of_ref client camera in
  let info = Heidi_Camera.Stub.describe stub () in
  Printf.printf "describe() -> %s @%dkbps\n" info.name info.bitrate_kbps;

  (* Show what a request actually looks like on the wire. *)
  let req =
    Orb.Protocol.Request
      {
        Orb.Protocol.req_id = 7;
        target = camera;
        operation = "zoom";
        oneway = false;
        trace_ctx = "";
        budget_us = None;
        nego_offer = "";
        payload =
          (let e = protocol.Orb.Protocol.codec.Wire.Codec.encoder () in
           e.Wire.Codec.put_long 3;
           e.Wire.Codec.finish ());
      }
  in
  let bytes = protocol.Orb.Protocol.encode_message req in
  Printf.printf "a zoom(3) request in protocol %S (%d bytes):\n"
    protocol.Orb.Protocol.name (String.length bytes);
  (match protocol.Orb.Protocol.framing with
  | Orb.Protocol.Line -> Printf.printf "  %s\n" bytes
  | Orb.Protocol.Length_prefixed _ | Orb.Protocol.Varint_prefixed _ ->
      Printf.printf "%s\n" (hexdump bytes));
  Orb.shutdown client;
  Orb.shutdown server;
  print_newline ();
  (bytes, camera)

let telnet_scenario () =
  (* The "human client": speak the text protocol over a raw channel. *)
  print_endline "=== telnet-style debugging (Section 4.2) ===";
  let server = Orb.create () in
  Orb.start server;
  let counter = ref 0 in
  let skel =
    Orb.Skeleton.create ~type_id:"IDL:Debug/Counter:1.0"
      [
        ("bump", fun args results ->
            counter := !counter + args.Wire.Codec.get_long ();
            results.Wire.Codec.put_long !counter);
      ]
  in
  let target = Orb.export server skel in
  let chan =
    Orb.Transport.connect ~proto:"mem" ~host:"local" ~port:(Orb.port server)
  in
  (* Type a request by hand: message tag, request id, oneway flag,
     target, operation, payload-as-string. *)
  let line =
    Printf.sprintf "o0 L1 bF s\"%s\" s\"bump\" s\"l5\""
      (Orb.Objref.to_string target)
  in
  Printf.printf "typing:  %s\n" line;
  chan.Orb.Transport.write (line ^ "\n");
  (* [max] bounds the reply line: a longer one is discarded and raises
     [Frame_limit]. *)
  let reply = chan.Orb.Transport.read_line ~max:4096 in
  Printf.printf "reply:   %s\n" reply;
  chan.Orb.Transport.write (line ^ "\n");
  Printf.printf "again:   %s\n" (chan.Orb.Transport.read_line ~max:4096);
  chan.Orb.Transport.close ();
  Orb.shutdown server

(* The negotiated upgrade: both ORBs start on the text protocol (the
   universally-understood floor) and advertise the HCX compact codec;
   the first two-way call carries the offer, the server answers, and
   every later call on the connection is HCX, payload and envelope
   alike. The offering call itself, and every call on a connection
   that falls back, stays in text. *)
let negotiation_scenario () =
  Printf.printf "=== codec negotiation (text floor -> hcx) ===\n";
  let server = Orb.create ~codecs:[ Orb.Protocol.hcx ] () in
  Orb.start server;
  let camera = Orb.export server
      (Heidi_Camera.skeleton
         {
           Heidi_Camera.attach = (fun _ () -> ());
           describe =
             (fun () -> { name = "cam"; bitrate_kbps = 750; live = true });
           zoom = (fun _ () -> ());
           hint = (fun _ () -> ());
           get_state = (fun () -> Start);
         })
  in
  let client = Orb.create ~codecs:[ Orb.Protocol.hcx ] () in
  let stub = Heidi_Camera.Stub.of_ref client camera in
  let info = Heidi_Camera.Stub.describe stub () in
  Printf.printf "describe() -> %s @%dkbps\n" info.name info.bitrate_kbps;
  let info2 = Heidi_Camera.Stub.describe stub () in
  let s = Orb.stats client in
  Printf.printf
    "negotiations: %d, fallbacks: %d (second describe -> %s rode hcx)\n\n"
    s.Orb.codec_negotiations s.Orb.codec_fallbacks info2.name;
  Orb.shutdown client;
  Orb.shutdown server

let () =
  let text_bytes, _ = demo Orb.Protocol.text "HeidiRMI text protocol" in
  let giop_bytes, _ = demo (Giop.protocol ()) "GIOP-like binary protocol" in
  let hcx_bytes, _ = demo Orb.Protocol.hcx "HCX compact binary protocol" in
  Printf.printf "request size: text %d bytes vs giop %d bytes vs hcx %d bytes\n\n"
    (String.length text_bytes) (String.length giop_bytes)
    (String.length hcx_bytes);
  negotiation_scenario ();
  telnet_scenario ()
