(* The two RPC workloads: generated Heidi stubs against generated
   skeletons, over tcp loopback, with HCX negotiated at connect time and
   the ORB's default server policy and client mux. Every caller is a
   closed loop: it sends its next call only after the reply. *)

open Measure
open Heidi_rmi

type kind = Control | Bulk

let callers = function Control -> 1 | Bulk -> 2

(* Bulk calls carry a budget on every call; control calls carry none. *)
let call_timeout = function Control -> None | Bulk -> Some 1.0

(* {1 Seeded inputs} *)

type inputs = {
  seqs : heidi_longseq array;  (** set_levels arguments. *)
  seq_lens : int array;
  lists : heidi_medialist array;  (** inputs() replies, served in turn. *)
  list_bytes : int array;
}

let n_seqs = 64
let n_lists = 16

(* [n] lengths spread log-uniformly over [lo, hi]: the midpoints of [n]
   equal slices of the log range. The lengths are the same on every
   seed; the seed picks the values and the order the callers use them
   in. The largest lengths set the tail latencies, so letting the seed
   move them would move the tails from seed to seed. *)
let log_uniform n lo hi =
  let l = log (float_of_int lo) and h = log (float_of_int hi) in
  Array.init n (fun i ->
      let u = (float_of_int i +. 0.5) /. float_of_int n in
      int_of_float (Float.round (exp (l +. (u *. (h -. l))))))

(* Any IDL long. *)
let long rng = Int32.to_int (Random.State.bits32 rng)

let make_inputs ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let media () : heidi_mediainfo =
    {
      name = String.init (4 + Random.State.int rng 21) (fun _ -> Char.chr (97 + Random.State.int rng 26));
      bitrate_kbps = Random.State.int rng 100_000;
      live = Random.State.bool rng;
    }
  in
  let seq_lens = log_uniform n_seqs 64 16384 in
  let seqs = Array.map (fun n -> List.init n (fun _ -> long rng)) seq_lens in
  let lists = Array.map (fun n -> List.init n (fun _ -> media ())) (log_uniform n_lists 8 1024) in
  let list_bytes =
    Array.map (List.fold_left (fun a (i : heidi_mediainfo) -> a + String.length i.name + 5) 0) lists
  in
  { seqs; seq_lens; lists; list_bytes }

(* {1 Servants} *)

(* Seconds spent inside the servant bodies, all servants and domains. *)
let busy = Atomic.make 0.

let timed f =
  let t0 = now () in
  let r = f () in
  atomic_add busy (now () -. t0);
  r

let camera_info : heidi_mediainfo = { name = "camera-0"; bitrate_kbps = 2500; live = true }
let camera_state = Pause

let camera_skeleton () =
  let level = Atomic.make 0 in
  let attach _ () = () and describe () = timed (fun () -> camera_info) in
  let get_state () = timed (fun () -> camera_state) in
  let source = Heidi_Source.skeleton { attach; describe; get_state } in
  Heidi_Camera.skeleton ~parents:[ source ]
    {
      attach;
      describe;
      get_state;
      zoom = (fun l () -> timed (fun () -> Atomic.set level l));
      hint = (fun _ () -> ());
    }

let mixer_skeleton inputs =
  let master = Atomic.make 0 and levels = Atomic.make [] and served = Atomic.make 0 in
  Heidi_Mixer.skeleton
    {
      add_input = (fun _ () -> 0);
      add_snapshot = (fun _ () -> 0);
      inputs =
        (fun () -> timed (fun () -> inputs.lists.(Atomic.fetch_and_add served 1 mod n_lists)));
      levels = (fun () -> timed (fun () -> Atomic.get levels));
      set_levels = (fun v () -> timed (fun () -> Atomic.set levels v));
      get_master_level = (fun () -> timed (fun () -> Atomic.get master));
      set_master_level = (fun v -> timed (fun () -> Atomic.set master v));
    }

(* {1 Set-up} *)

type rig = {
  server : Orb.t;
  client : Orb.t;
  camera : Orb.Objref.t;
  mixers : Orb.Objref.t array;  (** One per caller. *)
}

let hcx = Orb.Protocol.hcx

(* Both ORBs, the pool's worker domains, the exports, the connection and
   the first reply after codec negotiation. *)
let setup kind inputs ?server_obs ?client_obs () =
  let server =
    Orb.create ~codecs:[ hcx ] ~transport:"tcp" ~host:"127.0.0.1" ~port:0 ?obs:server_obs ()
  in
  Orb.start server;
  let camera = Orb.export server (camera_skeleton ()) in
  let mixers = Array.init (callers kind) (fun _ -> Orb.export server (mixer_skeleton inputs)) in
  let client =
    Orb.create ~codecs:[ hcx ] ~transport:"tcp" ~host:"127.0.0.1"
      ?call_timeout:(call_timeout kind) ?obs:client_obs ()
  in
  let first_ok =
    match kind with
    | Control -> Heidi_Camera.Stub.(describe (of_ref client camera)) () = camera_info
    | Bulk -> Heidi_Mixer.Stub.(get_master_level (of_ref client mixers.(0))) () = 0
  in
  if not first_ok then failwith "set-up: wrong first reply";
  { server; client; camera; mixers }

let teardown r =
  Orb.shutdown r.client;
  Orb.shutdown r.server

(* {1 Callers} *)

type op =
  | Zoom of int
  | Describe
  | Get_state
  | Get_master
  | Set_master of int
  | Set_levels of int
  | Levels of int
  | Inputs

type caller = {
  rng : Random.State.t;
  mutable cam : Heidi_Camera.Stub.t;
  mutable mix : Heidi_Mixer.Stub.t;
  mutable lat : samples;  (** Seconds per completed op. *)
  mutable ok : int;
  mutable failed : int;
  mutable bytes : int;  (** IDL-level argument + result bytes. *)
  mutable master : int;  (** Last master level this caller set. *)
  mutable listed : int;  (** inputs() calls made on this caller's mixer. *)
  mutable marshal : float;  (** Traced path: seconds in put_* ... *)
  mutable unmarshal : float;  (** ... and in get_*. *)
  mutable error : string option;
  mutable deck : op list list;  (** Bulk steps left in this round. *)
}

let make_caller ~seed rig i =
  {
    rng = Random.State.make [| seed; 100 + i |];
    cam = Heidi_Camera.Stub.of_ref rig.client rig.camera;
    mix = Heidi_Mixer.Stub.of_ref rig.client rig.mixers.(i);
    lat = samples ();
    ok = 0;
    failed = 0;
    bytes = 0;
    master = 0;
    listed = 0;
    marshal = 0.;
    unmarshal = 0.;
    error = None;
    deck = [];
  }

(* Points caller [i] at a fresh rig, whose servants start from their
   initial state again. *)
let rebind rig i c =
  c.cam <- Heidi_Camera.Stub.of_ref rig.client rig.camera;
  c.mix <- Heidi_Mixer.Stub.of_ref rig.client rig.mixers.(i);
  c.master <- 0;
  c.listed <- 0

(* The seeded mix. Control: five small calls, uniform. Bulk: a write
   followed by the read that must return it, or a list read; dealt from
   a shuffled deck holding each sequence once and as many list reads,
   so every round moves the same bytes. *)
let next kind c =
  match kind with
  | Control -> (
      match Random.State.int c.rng 5 with
      | 0 -> [ Zoom (Random.State.int c.rng 100) ]
      | 1 -> [ Describe ]
      | 2 -> [ Get_state ]
      | 3 -> [ Get_master ]
      | _ -> [ Set_master (long c.rng) ])
  | Bulk ->
      if c.deck = [] then begin
        let d =
          Array.append
            (Array.init n_seqs (fun i -> [ Set_levels i; Levels i ]))
            (Array.make n_seqs [ Inputs ])
        in
        for i = Array.length d - 1 downto 1 do
          let j = Random.State.int c.rng (i + 1) in
          let x = d.(i) in
          d.(i) <- d.(j);
          d.(j) <- x
        done;
        c.deck <- Array.to_list d
      end;
      let step = List.hd c.deck in
      c.deck <- List.tl c.deck;
      step

let op_name = function
  | Zoom _ -> "zoom"
  | Describe -> "describe"
  | Get_state -> "_get_state"
  | Get_master -> "_get_master_level"
  | Set_master _ -> "_set_master_level"
  | Set_levels _ -> "set_levels"
  | Levels _ -> "levels"
  | Inputs -> "inputs"

(* long = 4 bytes, boolean = 1, string = its length; enums travel as ulong. *)
let payload inputs c = function
  | Zoom _ | Get_state | Get_master | Set_master _ -> 4
  | Describe -> String.length camera_info.name + 5
  | Set_levels i | Levels i -> 4 * inputs.seq_lens.(i)
  | Inputs -> inputs.list_bytes.(c.listed mod n_lists)

(* A call returns the check of its reply, run after the clock stops. *)
let expect_list inputs c r () =
  let want = inputs.lists.(c.listed mod n_lists) in
  c.listed <- c.listed + 1;
  r = want

let call_stub inputs c op : unit -> bool =
  match op with
  | Zoom l ->
      Heidi_Camera.Stub.zoom c.cam l ();
      Fun.const true
  | Describe ->
      let r = Heidi_Camera.Stub.describe c.cam () in
      fun () -> r = camera_info
  | Get_state ->
      let r = Heidi_Camera.Stub.get_state c.cam () in
      fun () -> r = camera_state
  | Get_master ->
      let r = Heidi_Mixer.Stub.get_master_level c.mix () in
      fun () -> r = c.master
  | Set_master v ->
      Heidi_Mixer.Stub.set_master_level c.mix v ();
      fun () ->
        c.master <- v;
        true
  | Set_levels i ->
      Heidi_Mixer.Stub.set_levels c.mix inputs.seqs.(i) ();
      Fun.const true
  | Levels i ->
      let r = Heidi_Mixer.Stub.levels c.mix () in
      fun () -> r = inputs.seqs.(i)
  | Inputs -> expect_list inputs c (Heidi_Mixer.Stub.inputs c.mix ())

(* The traced path: what the stubs do, through [Orb.invoke] directly, so
   the generated put_* in the marshal closure and get_* on the reply
   decoder can be timed. *)
let call_direct inputs c op : unit -> bool =
  let invoke (target : Orb.Objref.t) put get =
    let marshal e =
      let t0 = now () in
      put e;
      c.marshal <- c.marshal +. (now () -. t0)
    in
    match Orb.invoke c.cam.Heidi_Camera.Stub.orb target ~op:(op_name op) marshal with
    | Some d ->
        let t0 = now () in
        let r = get d in
        c.unmarshal <- c.unmarshal +. (now () -. t0);
        r
    | None -> failwith "no reply"
  in
  let cam = c.cam.Heidi_Camera.Stub.self and mix = c.mix.Heidi_Mixer.Stub.self in
  let none _ = () in
  match op with
  | Zoom l ->
      invoke cam (fun e -> put_long e l) none;
      Fun.const true
  | Describe ->
      let r = invoke cam none get_heidi_mediainfo in
      fun () -> r = camera_info
  | Get_state ->
      let r = invoke cam none get_heidi_status in
      fun () -> r = camera_state
  | Get_master ->
      let r = invoke mix none get_long in
      fun () -> r = c.master
  | Set_master v ->
      invoke mix (fun e -> put_long e v) none;
      fun () ->
        c.master <- v;
        true
  | Set_levels i ->
      invoke mix (fun e -> put_heidi_longseq e inputs.seqs.(i)) none;
      Fun.const true
  | Levels i ->
      let r = invoke mix none get_heidi_longseq in
      fun () -> r = inputs.seqs.(i)
  | Inputs -> expect_list inputs c (invoke mix none get_heidi_medialist)

let caller_loop kind inputs call ~deadline c =
  while now () < deadline do
    List.iter
      (fun op ->
        let bytes = payload inputs c op in
        let t0 = now () in
        match call inputs c op with
        | check ->
            let d = now () -. t0 in
            if check () then begin
              add c.lat d;
              c.ok <- c.ok + 1;
              c.bytes <- c.bytes + bytes
            end
            else begin
              c.failed <- c.failed + 1;
              if c.error = None then c.error <- Some (op_name op ^ ": wrong reply")
            end
        | exception e ->
            c.failed <- c.failed + 1;
            if c.error = None then c.error <- Some (op_name op ^ ": " ^ Printexc.to_string e))
      (next kind c)
  done

(* Runs every caller on its own thread until [seconds] from now. *)
let drive kind inputs call cs ~seconds =
  let deadline = now () +. seconds in
  Array.map (fun c -> Thread.create (caller_loop kind inputs call ~deadline) c) cs
  |> Array.iter Thread.join

(* One measured window of [seconds] on [rig]. *)
let window kind inputs cs rig ~seconds =
  Array.iteri (fun i c -> rebind rig i c) cs;
  let before = Array.map (fun c -> (c.ok, c.bytes, c.lat.n)) cs in
  let t0 = now () and c0 = cpu_s () in
  drive kind inputs call_stub cs ~seconds;
  let dt = now () -. t0 and cpu = cpu_s () -. c0 in
  let sum f = Array.fold_left ( + ) 0 (Array.map2 f cs before) in
  let lat =
    Array.concat
      (Array.to_list
         (Array.map2 (fun c (_, _, n) -> Array.sub c.lat.a n (c.lat.n - n)) cs before))
  in
  Array.sort compare lat;
  {
    dt;
    ops = sum (fun c (ok, _, _) -> c.ok - ok);
    cpu;
    bytes = sum (fun c (_, b, _) -> c.bytes - b);
    lat;
  }

(* {1 Checks} *)

let invariants kind (s : Orb.stats) =
  List.filter_map
    (fun (name, got, want) ->
      if got = want then None else Some (Printf.sprintf "invariant %s = %d, expected %d" name got want))
    [
      ("orb.connections_opened", s.opened, 1);
      (* The client offers only hcx, so a negotiation is one to hcx. *)
      ("orb.codec_negotiations", s.codec_negotiations, 1);
      ("orb.codec_fallbacks", s.codec_fallbacks, 0);
      ("orb.mux_peak_in_flight", s.mux_peak_in_flight, callers kind);
      ("orb.retries", s.retries, 0);
      ("orb.timeouts", s.timeouts, 0);
    ]

let caller_problems cs =
  Array.to_list cs |> List.filter_map (fun c -> c.error)

let config kind =
  let p = Orb.Pool.default_config in
  [
    ("transport", "tcp loopback (127.0.0.1), one client connection");
    ("codec", "hcx, negotiated once per connection over the heidi-text base protocol");
    ("pool", Printf.sprintf "%d workers, queue %d, %s admission, %s backend (ORB defaults)"
        p.workers p.queue_capacity
        (match p.admission with Orb.Pool.Reject -> "reject" | Block _ -> "block")
        (match p.backend with Orb.Pool.Domains -> "domains" | Systhreads -> "systhreads"));
    ("mux_max_in_flight", string_of_int Orb.default_mux.max_in_flight);
    ("callers", Printf.sprintf "%d thread(s), closed loop" (callers kind));
    ( "call_timeout",
      match call_timeout kind with None -> "none" | Some s -> Printf.sprintf "%g s" s );
  ]

(* {1 Untraced run: the end-to-end metrics}

   The measured stretch is cut into one-second windows, and every window
   runs on a rig set up for it: set-up times are then sampled across the
   whole run, like every other metric. The metrics come from the quiet
   windows (see measure.ml), and [setup_s] from their set-ups. *)

let window_s = 1.

(* Timed set-ups: a few at the start, whose first ones pay the process's
   one-off costs, then one per window. Each follows the previous rig's
   shutdown after the host has had a moment to reap its worker
   domains. *)
let setups_before = 5

(* Long enough for the heap to reach its working size. *)
let warmup_s = 2.

let run ~kind ~seed ~seconds =
  let inputs = make_inputs ~seed in
  let timed_setup () =
    Thread.delay 0.1;
    let t0 = now () in
    let r = setup kind inputs () in
    (now () -. t0, r)
  in
  for _ = 2 to setups_before do
    teardown (snd (timed_setup ()))
  done;
  let _, rig = timed_setup () in
  let cs = Array.init (callers kind) (make_caller ~seed rig) in
  drive kind inputs call_stub cs ~seconds:warmup_s;
  teardown rig;
  Array.iter
    (fun c ->
      c.lat <- samples ();
      c.ok <- 0;
      c.failed <- 0;
      c.bytes <- 0)
    cs;
  let n = max 4 (int_of_float (Float.round (seconds /. window_s))) in
  let ticks = cpu_ticks () in
  let ws, problems =
    List.split
      (List.init n (fun _ ->
           let ticks = cpu_ticks () in
           let setup, rig = timed_setup () in
           let w = window kind inputs cs rig ~seconds:(seconds /. float_of_int n) in
           let stats = Orb.stats rig.client in
           teardown rig;
           ((steal_since ticks, (setup, w)), invariants kind stats)))
  in
  let steal = steal_pct ticks in
  let quiet_steal, quiet = List.split (quietest ws) in
  let quiet_ws = List.map snd quiet in
  let q = window_quantile quiet_ws in
  let ok = List.fold_left (fun a (_, (_, (w : window))) -> a + w.ops) 0 ws in
  let failed = Array.fold_left (fun a c -> a + c.failed) 0 cs in
  let beyond_p99 =
    let v = q 0.99 in
    List.fold_left
      (fun a (w : window) -> a + Array.fold_left (fun a x -> if x > v then a + 1 else a) 0 w.lat)
      0 quiet_ws
  in
  {
    attempted = ok + failed;
    failed;
    metrics = end_to_end ~setup:(median (List.map fst quiet)) ~q quiet_ws;
    config =
      config kind
      @ [
          ("ops", string_of_int ok);
          ( "windows",
            Printf.sprintf "%d of %.3g s, each on a freshly set-up rig; the %d quiet ones reported" n
              (seconds /. float_of_int n) (List.length quiet) );
          ( "setups",
            Printf.sprintf "%d timed, the quiet windows' %d counted" (setups_before + n)
              (List.length quiet) );
          ("host_steal", steal ^ " of host CPU time during the measured stretch");
          ( "host_steal_quiet",
            "at most " ^ pct (List.fold_left Float.max 0. quiet_steal) ^ " in each quiet window" );
          ("p99_samples_beyond", Printf.sprintf "%d in the quiet windows" beyond_p99);
        ];
    problems = caller_problems cs @ List.sort_uniq compare (List.concat problems);
  }

(* {1 Traced run: the per-layer metrics}

   One rig with observability attached to both ORBs. Phases of plain and
   traced calls alternate on it, so [obs.overhead_pct] compares the two
   on the same connection, seed and moment. Both kinds of phase drive
   [Orb.invoke] directly and time the generated put_*/get_*; the ORB's
   own spans (client phases, server spans joined by trace id) and byte
   meters are only on in the traced phases. *)

type span_log = {
  lock : Mutex.t;
  client : (string, Obs.Trace.span) Hashtbl.t;
  server : (string, float) Hashtbl.t;  (** Trace id -> server span seconds. *)
}

let span_sink log =
  Obs.Sink.make ~name:"perfbench" (fun s ->
      Mutex.protect log.lock (fun () ->
          match s.Obs.Trace.kind with
          | Obs.Trace.Client -> Hashtbl.replace log.client s.trace_id s
          | Obs.Trace.Server -> Hashtbl.replace log.server s.trace_id (Obs.Trace.duration s)))

(* {2 Replays of the op mix through single layers, without an ORB} *)

type wire_op = {
  op : op;
  on_mixer : bool;
  target : Orb.Objref.t;
  put_args : Wire.Codec.encoder -> unit;
  put_res : Wire.Codec.encoder -> unit;
  get_args : Wire.Codec.decoder -> unit;
  get_res : Wire.Codec.decoder -> unit;
}

let wire_op inputs rig k op =
  let nothing _ = () in
  let w pa pr ga gr ~mixer =
    {
      op;
      on_mixer = mixer;
      target = (if mixer then rig.mixers.(0) else rig.camera);
      put_args = pa;
      put_res = pr;
      get_args = ga;
      get_res = gr;
    }
  in
  let level = 1_000_000 in
  match op with
  | Zoom l -> w (fun e -> put_long e l) nothing (fun d -> ignore (get_long d)) nothing ~mixer:false
  | Describe ->
      w nothing (fun e -> put_heidi_mediainfo e camera_info) nothing
        (fun d -> ignore (get_heidi_mediainfo d)) ~mixer:false
  | Get_state ->
      w nothing (fun e -> put_heidi_status e camera_state) nothing
        (fun d -> ignore (get_heidi_status d)) ~mixer:false
  | Get_master -> w nothing (fun e -> put_long e level) nothing (fun d -> ignore (get_long d)) ~mixer:true
  | Set_master v -> w (fun e -> put_long e v) nothing (fun d -> ignore (get_long d)) nothing ~mixer:true
  | Set_levels i ->
      w (fun e -> put_heidi_longseq e inputs.seqs.(i)) nothing
        (fun d -> ignore (get_heidi_longseq d)) nothing ~mixer:true
  | Levels i ->
      w nothing (fun e -> put_heidi_longseq e inputs.seqs.(i)) nothing
        (fun d -> ignore (get_heidi_longseq d)) ~mixer:true
  | Inputs ->
      w nothing (fun e -> put_heidi_medialist e inputs.lists.(k mod n_lists)) nothing
        (fun d -> ignore (get_heidi_medialist d)) ~mixer:true

(* Repeats [f] over whole rounds until [seconds] pass; seconds per call. *)
let per_call ~seconds n f =
  let t0 = now () and rounds = ref 0 in
  while now () -. t0 < seconds do
    for k = 0 to n - 1 do f k done;
    incr rounds
  done;
  (now () -. t0) /. float_of_int (!rounds * n)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let replay kind inputs ws =
  let codec = hcx.codec and n = Array.length ws in
  let encode put =
    let e = codec.encoder () in
    put e;
    e.finish ()
  in
  let args = Array.map (fun w -> encode w.put_args) ws and res = Array.map (fun w -> encode w.put_res) ws in
  (* Wire: words allocated by one encode and one decode of the op's
     arguments and of its result. *)
  let w0 = allocated_words () and reps = 20 in
  for _ = 1 to reps do
    Array.iter
      (fun w ->
        w.get_args (codec.decoder (encode w.put_args));
        w.get_res (codec.decoder (encode w.put_res)))
      ws
  done;
  let alloc_kwords = (allocated_words () -. w0) /. float_of_int (reps * n) /. 1000. in
  (* Protocol: the request and reply envelopes of each op. *)
  let budget_us = Option.map (fun s -> int_of_float (s *. 1e6)) (call_timeout kind) in
  let reqs =
    Array.mapi
      (fun k w ->
        Orb.Protocol.Request
          {
            req_id = k + 1;
            target = w.target;
            operation = op_name w.op;
            oneway = false;
            payload = args.(k);
            trace_ctx = "";
            budget_us;
            nego_offer = "";
          })
      ws
  and reps_ =
    Array.mapi
      (fun k _ ->
        Orb.Protocol.Reply
          { rep_id = k + 1; status = Orb.Protocol.Status_ok; payload = res.(k); nego_answer = "" })
      ws
  in
  let enc_req = Array.map hcx.encode_message reqs and enc_rep = Array.map hcx.encode_message reps_ in
  let encode_s =
    per_call ~seconds:0.3 n (fun k ->
        ignore (hcx.encode_message reqs.(k));
        ignore (hcx.encode_message reps_.(k)))
  in
  let decode_s =
    per_call ~seconds:0.3 n (fun k ->
        ignore (hcx.decode_message enc_req.(k));
        ignore (hcx.decode_message enc_rep.(k)))
  in
  (* Transport: a raw tcp ping-pong at the ops' framed sizes (HCX frame
     header: magic byte + LEB128 body length). *)
  let framed s =
    let len = String.length s in
    let rec varint n = if n < 128 then 1 else 1 + varint (n lsr 7) in
    String.make (1 + varint len + len) 'x'
  in
  let req_frames = Array.map framed enc_req and rep_frames = Array.map framed enc_rep in
  let l = Orb.Transport.listen ~proto:"tcp" ~host:"127.0.0.1" ~port:0 in
  let echo =
    Thread.create
      (fun () ->
        let ch = l.accept () in
        (try
           while true do
             for k = 0 to n - 1 do
               ignore (ch.read_exact (String.length req_frames.(k)));
               ch.write rep_frames.(k)
             done
           done
         with Orb.Transport.Transport_error _ -> ());
        ch.close ())
      ()
  in
  let ch = Orb.Transport.connect ~proto:"tcp" ~host:"127.0.0.1" ~port:l.bound_port in
  let rtt = samples () in
  let t0 = now () in
  while now () -. t0 < 0.5 do
    for k = 0 to n - 1 do
      let a = now () in
      ch.write req_frames.(k);
      ignore (ch.read_exact (String.length rep_frames.(k)));
      add rtt (now () -. a)
    done
  done;
  ch.close ();
  Thread.join echo;
  l.shutdown ();
  (* Skeleton: operation lookup in the generated skeletons. *)
  let cam = camera_skeleton () and mix = mixer_skeleton inputs in
  let lookups = Array.map (fun w -> ((if w.on_mixer then mix else cam), op_name w.op)) ws in
  let dispatch_s =
    per_call ~seconds:0.2 n (fun k ->
        let sk, name = lookups.(k) in
        if Orb.Skeleton.dispatch sk name = None then failwith ("no handler for " ^ name))
  in
  [
    m "wire.alloc_kwords_per_op" "kword" alloc_kwords;
    m "protocol.encode_us" "us" (encode_s *. 1e6);
    m "protocol.decode_us" "us" (decode_s *. 1e6);
    m "transport.rtt_us" "us" (quantile (sorted [ rtt ]) 0.5 *. 1e6);
    m "skeleton.dispatch_ns" "ns" (dispatch_s *. 1e9);
  ]

(* The op span must be accounted for by the client's marshal and
   unmarshal, the servant and the ORB's own span minus those, within
   this many percent. The remainder is the stub and span bookkeeping
   outside the ORB's client span. *)
let accounting_margin_pct = 10.

let layers ~kind ~seed ~seconds =
  let inputs = make_inputs ~seed in
  let server_obs = Obs.create ~enabled:false () and client_obs = Obs.create ~enabled:false () in
  let log = { lock = Mutex.create (); client = Hashtbl.create 4096; server = Hashtbl.create 4096 } in
  Obs.add_sink server_obs (span_sink log);
  Obs.add_sink client_obs (span_sink log);
  let rig = setup kind inputs ~server_obs ~client_obs () in
  let cs = Array.init (callers kind) (make_caller ~seed rig) in
  drive kind inputs call_direct cs ~seconds:warmup_s;
  (* Per caller: latencies of the plain and of the traced phases. *)
  let lat = Array.map (fun _ -> (samples (), samples ())) cs in
  let sum f = Array.fold_left (fun a c -> a +. f c) 0. cs in
  let ops = [| 0.; 0. |] and marshal = ref 0. and unmarshal = ref 0. and busy_on = ref 0. in
  let minor = ref 0 and major = ref 0 in
  let phase_s = Float.min 1.0 (seconds /. 4.) in
  let t_end = now () +. seconds and traced = ref false in
  while now () < t_end do
    let p = if !traced then 1 else 0 in
    Obs.set_enabled server_obs !traced;
    Obs.set_enabled client_obs !traced;
    Array.iteri (fun i c -> c.lat <- (if !traced then snd else fst) lat.(i)) cs;
    let ok0 = sum (fun c -> float_of_int c.ok) and m0 = sum (fun c -> c.marshal) in
    let u0 = sum (fun c -> c.unmarshal) and b0 = Atomic.get busy and g0 = Gc.quick_stat () in
    drive kind inputs call_direct cs ~seconds:phase_s;
    let g1 = Gc.quick_stat () in
    ops.(p) <- ops.(p) +. sum (fun c -> float_of_int c.ok) -. ok0;
    if !traced then begin
      marshal := !marshal +. sum (fun c -> c.marshal) -. m0;
      unmarshal := !unmarshal +. sum (fun c -> c.unmarshal) -. u0;
      busy_on := !busy_on +. Atomic.get busy -. b0
    end
    else begin
      minor := !minor + g1.minor_collections - g0.minor_collections;
      major := !major + g1.major_collections - g0.major_collections
    end;
    traced := not !traced
  done;
  Obs.set_enabled server_obs false;
  Obs.set_enabled client_obs false;
  let cstats = Orb.stats rig.client and sstats = Orb.stats rig.server in
  let meter =
    List.filter
      (fun e -> String.starts_with ~prefix:"tcp:" e.Obs.Metrics.endpoint)
      (Obs.snapshot client_obs).metrics.endpoints
  in
  let ws =
    let c = make_caller ~seed rig 0 in
    List.init 128 (fun _ -> next kind c) |> List.concat |> List.mapi (wire_op inputs rig) |> Array.of_list
  in
  teardown rig;
  let replayed = replay kind inputs ws in
  let ops_off = ops.(0) and ops_on = ops.(1) in
  let per_op x = x /. ops_on in
  let joined =
    Hashtbl.fold
      (fun id c acc ->
        match Hashtbl.find_opt log.server id with Some sd -> (c, sd) :: acc | None -> acc)
      log.client []
  in
  let avg f = List.fold_left (fun a x -> a +. f x) 0. joined /. float_of_int (List.length joined) in
  let us x = x *. 1e6 in
  let open Obs.Trace in
  let busy_us = us (per_op !busy_on) and server_us = us (avg snd) in
  let marshal_us = us (per_op !marshal) and unmarshal_us = us (per_op !unmarshal) in
  let self_us =
    us (avg (fun (c, _) -> duration c -. c.marshal_s -. c.unmarshal_s)) -. busy_us
  in
  let on = sorted (Array.to_list (Array.map snd lat)) in
  let off = sorted (Array.to_list (Array.map fst lat)) in
  let op_span_us = us (mean on) in
  let accounted = (marshal_us +. unmarshal_us +. busy_us +. self_us) /. op_span_us *. 100. in
  let meter_sum f = float_of_int (List.fold_left (fun a e -> a + f e) 0 meter) in
  let count name v = m name "count" (float_of_int v) in
  let per_kop n = float_of_int n /. ops_off *. 1000. in
  let metrics =
    [
      m "wire.marshal_us" "us" marshal_us;
      m "wire.unmarshal_us" "us" unmarshal_us;
      m "wire.bytes_per_op" "B"
        (per_op (meter_sum (fun e -> e.Obs.Metrics.bytes_in + e.Obs.Metrics.bytes_out)));
      m "transport.writes_per_op" "count" (per_op (meter_sum (fun e -> e.Obs.Metrics.writes)));
      m "transport.reads_per_op" "count" (per_op (meter_sum (fun e -> e.Obs.Metrics.reads)));
      m "servant.busy_us" "us" busy_us;
      m "orb.client_send_us" "us" (us (avg (fun (c, _) -> c.send_s)));
      m "orb.client_wait_us" "us" (us (avg (fun (c, _) -> c.wait_s)));
      m "orb.server_span_us" "us" server_us;
      m "orb.self_us" "us" self_us;
      m "orb.op_span_us" "us" op_span_us;
      m "orb.accounted_pct" "%" accounted;
      count "orb.connections_opened" cstats.opened;
      count "orb.codec_negotiations" cstats.codec_negotiations;
      count "orb.codec_fallbacks" cstats.codec_fallbacks;
      count "orb.mux_peak_in_flight" cstats.mux_peak_in_flight;
      count "orb.retries" cstats.retries;
      count "orb.timeouts" cstats.timeouts;
      m "pool.gap_us" "us" (server_us -. busy_us);
      count "pool.rejected" sstats.rejected;
      count "pool.expired" (sstats.expired_pre_admission + sstats.expired_in_queue);
      m "gc.minor_per_kop" "count" (per_kop !minor);
      m "gc.major_per_kop" "count" (per_kop !major);
      m "obs.overhead_pct" "%"
        ((quantile on 0.5 -. quantile off 0.5) /. quantile off 0.5 *. 100.);
    ]
    @ replayed
  in
  let problems =
    (if List.length joined < int_of_float ops_on then
       [ Printf.sprintf "only %d of %.0f traced ops have joined client and server spans"
           (List.length joined) ops_on ]
     else [])
    @ (if Float.abs (accounted -. 100.) > accounting_margin_pct then
         [ Printf.sprintf "layers account for %.1f%% of the op span (margin %g%%)" accounted
             accounting_margin_pct ]
       else [])
    @ caller_problems cs @ invariants kind cstats
  in
  let failed = Array.fold_left (fun a c -> a + c.failed) 0 cs in
  {
    attempted = int_of_float (ops_on +. ops_off) + failed;
    failed;
    metrics;
    config =
      config kind
      @ [ ("traced_ops", Printf.sprintf "%.0f" ops_on); ("plain_ops", Printf.sprintf "%.0f" ops_off) ];
    problems;
  }
