(* Re-export the runtime's submodules: [Orb] is the library's facade. *)
module Objref = Objref
module Dispatch = Dispatch
module Protocol = Protocol
module Transport = Transport
module Communicator = Communicator
module Skeleton = Skeleton
module Object_adapter = Object_adapter
module Serial = Serial
module Interceptor = Interceptor
module Smart = Smart
module Retry = Retry
module Breaker = Breaker
module Pool = Pool
module Mux = Mux
module Nego = Nego
module Admit = Admit

let src = Logs.Src.create "orb" ~doc:"HeidiRMI ORB runtime"

module Log = (val Logs.src_log src : Logs.LOG)
module Smap = Map.Make (String)

exception Remote_exception of {
  repo_id : string;
  payload : string;
  codec : Wire.Codec.t;
}

exception System_exception of string

let () =
  Printexc.register_printer (function
    | Remote_exception { repo_id; _ } ->
        Some (Printf.sprintf "Orb.Remote_exception(%s)" repo_id)
    | System_exception m -> Some (Printf.sprintf "Orb.System_exception: %s" m)
    | _ -> None)

(* The server's overload policy — how much concurrent work, queued
   work, and connection state one address space will hold, and what to
   do at each bound. A policy value, not code, in the spirit of the
   paper's configurable ORB (and RAFDA's distribution-policy
   separation). *)
type server_policy = {
  pool : Pool.config option;
      (* Some: bounded worker pool (the default). None: the unbounded
         thread-per-connection model the paper describes, kept for the
         overload comparison (bench E10). *)
  max_connections : int;  (* 0 = unlimited; beyond it, idle-LRU evict *)
  max_pipelined : int;  (* per-connection in-flight cap; 0 = unlimited *)
  limits : Wire.Codec.limits;  (* decode budget for inbound frames *)
}

let default_server_policy =
  {
    pool = Some Pool.default_config;
    max_connections = 0;
    max_pipelined = 64;
    limits = Wire.Codec.default_limits;
  }

(* First sleep after a transient accept failure (e.g. fd exhaustion);
   it doubles per consecutive failure, up to 1 s. *)
let accept_backoff = 0.01

(* The client's connection-sharing policy. Each cached outbound
   connection runs a reply demultiplexer: a reader thread correlates
   replies to waiting callers by request id, so up to [max_in_flight]
   two-way calls from many threads pipeline over one connection (the
   server decodes pipelined requests and replies out of order). At
   [max_in_flight = 1] the two-way calls take turns on one slot; a
   limit below 1 counts as 1. *)
type mux = { max_in_flight : int }

let default_mux = { max_in_flight = 32 }
(* Below the default server policy's [max_pipelined] (64), so a default
   client never trips a default server's pipelining cap. *)

(* A channel's byte-meter labels: its endpoint, and the per-codec split
   [<codec>:<endpoint>] for the codec it speaks now. A negotiated switch
   re-points [m_codec] ({!meter_codec}); reads and writes only load it. *)
type meter = { m_endpoint : string; mutable m_codec : string }

let meter_codec m codec = m.m_codec <- codec ^ ":" ^ m.m_endpoint

type t = {
  proto : Protocol.t;
  codecs : Protocol.t list;
      (* negotiable codecs, preference-ordered; [] = negotiation off *)
  codec_compat : name:string -> offered:int -> local:int -> bool;
      (* version-compatibility predicate for negotiation (default
         [Protocol.Nego.exact]; the analysis layer's evolution verdict
         can be wired in) *)
  transport : string;
  host : string;
  cfg_port : int;
  call_timeout : float option;  (* default per-call deadline, seconds *)
  propagate_deadlines : bool;  (* stamp remaining budget into requests *)
  retry : Retry.policy;
  retry_budget : Retry.Budget.t;  (* aggregate retry/failover gate *)
  breaker : Breaker.t option;
  obs : Obs.t;  (* tracing + metrics; disabled unless supplied *)
  policy : server_policy;
  mux_cfg : mux;  (* client connection-sharing policy *)
  oa : Object_adapter.t;
  lock : Locked.t;
      (* guards the mutable fields below, [adm] and [cache]; rank
         [connection_cache] *)
  mutable listener : Transport.listener option;
  mutable bound_port : int;
  adm : Admit.t;
      (* server admission: pipelining cap, draining, unanswered count *)
  mutable pool : Pool.t option;  (* workers; created at [start] *)
  cache : (string * string * int, conn) Mux.cache;  (* endpoint -> conn *)
  client_chain : Interceptor.chain;
  server_chain : Interceptor.chain;
  mutable accepted : sconn list;  (* server-side connections *)
  next_req_id : int Atomic.t;
  service_ewma_us : int Atomic.t;
      (* EWMA of pool-dispatch service time in µs (0 until the first
         completion) — the doomed-request shed threshold *)
  mux_peak : int Atomic.t;  (* highest in-flight count any connection saw *)
  mutable bootstrap_registry : (string, Objref.t) Hashtbl.t option;
      (* the table too is under [lock]: [Bootstrap]'s handlers run on
         pool workers and [Bootstrap.bind] on application threads *)
  fwd_cache : Objref.t Smap.t Atomic.t;
      (* logical target (stringified) -> last Locate_forward redirect;
         invalidated when the forwarded target fails. Read on every
         call, written only on a redirect or its failure. *)
  rng : Random.State.t;  (* replica selection; guarded by [lock] *)
}

(* One cached outbound connection. [conn_lock] serializes sends (each
   framed message must hit the wire whole); its reader thread
   ([mux_reader]) owns all receives. *)
and conn = {
  comm : Communicator.t;
  conn_lock : Locked.t;  (* send lock; rank [communicator] *)
  mx_lock : Locked.t;
      (* guards [mux]; rank [mux]; intrinsic cond: delivery, death, slot
         free, offer settled *)
  mux : Mux.t;
  mx_gauge : string;  (* obs gauge name, precomputed off the hot path *)
  c_meter : meter;  (* byte-meter labels; re-pointed at the negotiated switch *)
}

(* One accepted server-side connection: its reader thread decodes
   requests; replies (possibly from several pool workers at once) are
   serialized by [s_write]. *)
and sconn = {
  scomm : Communicator.t;
  s_write : Locked.t;  (* reply serialization and [s_nego]; rank [communicator] *)
  mutable s_last_active : float;  (* for idle-LRU eviction *)
  s_adm : Admit.conn;  (* requests read but not yet answered; ORB lock *)
  s_nego : Nego.server;
  s_meter : meter;  (* byte-meter labels *)
}

let create ?(protocol = Protocol.text) ?(codecs = [])
    ?(codec_compat = Protocol.Nego.exact)
    ?(transport = "mem") ?(host = "local") ?(port = 0) ?call_timeout
    ?(propagate_deadlines = true) ?(retry = Retry.default)
    ?(retry_budget = Retry.Budget.default_config) ?breaker ?obs
    ?(server_policy = default_server_policy) ?(mux = default_mux) () =
  {
    proto = protocol;
    codecs;
    codec_compat;
    transport;
    host;
    cfg_port = port;
    call_timeout;
    propagate_deadlines;
    retry;
    retry_budget = Retry.Budget.create ~config:retry_budget ();
    breaker = Option.map (fun config -> Breaker.create ~config ()) breaker;
    obs = (match obs with Some o -> o | None -> Obs.create ~enabled:false ());
    policy = server_policy;
    mux_cfg = mux;
    oa = Object_adapter.create ();
    lock = Locked.create ~name:"orb" ~rank:Locked.Rank.connection_cache;
    listener = None;
    bound_port = 0;
    adm = Admit.create ~cap:server_policy.max_pipelined;
    pool = None;
    cache = Mux.cache ();
    client_chain = Interceptor.empty_chain ();
    server_chain = Interceptor.empty_chain ();
    accepted = [];
    next_req_id = Atomic.make 1;
    service_ewma_us = Atomic.make 0;
    mux_peak = Atomic.make 0;
    bootstrap_registry = None;
    fwd_cache = Atomic.make Smap.empty;
    (* Fixed seed: replica selection only needs spread, not entropy, and
       determinism keeps test runs reproducible. *)
    rng = Random.State.make [| 0x9e3779b9 |];
  }

let protocol t = t.proto
let adapter t = t.oa
let obs t = t.obs
let client_interceptors t = t.client_chain
let server_interceptors t = t.server_chain

(* Channels report their wire bytes (framing included) to the ORB's
   metrics under an endpoint label; [Obs.add_bytes] is a boolean load
   when observability is disabled. Each byte is also accounted to the
   meter's per-codec label: a negotiated switch re-points it, so the
   split shows how much of an endpoint's traffic travelled in each
   encoding. Returns the metered channel and its meter. *)
let meter_channel t label chan =
  let obs = t.obs in
  let m =
    { m_endpoint = label; m_codec = t.proto.Protocol.name ^ ":" ^ label }
  in
  ( Transport.metered chan
      ~on_read:(fun n ->
        Obs.add_bytes obs ~endpoint:m.m_endpoint ~dir:`In n;
        Obs.add_bytes obs ~endpoint:m.m_codec ~dir:`In n)
      ~on_write:(fun n ->
        Obs.add_bytes obs ~endpoint:m.m_endpoint ~dir:`Out n;
        Obs.add_bytes obs ~endpoint:m.m_codec ~dir:`Out n),
    m )

let with_lock t f = Locked.with_lock t.lock f
let port t = with_lock t (fun () -> t.bound_port)

(* ---------------- event counters ---------------- *)

(* The ORB counts its events in one place: named counters in its
   [Obs] metrics registry, bumped by [count] whatever the tracing switch
   says (a counter is one atomic add; only spans, histograms, byte
   meters and gauges follow the switch). The names are defined once
   here, for the bump sites and for [stats], which reads them back. *)
module Event = struct
  let opened = "client:connections_opened"
  let retries = "client:retries"
  let timeouts = "client:timeouts"
  let failovers = "client:failover"
  let forwards = "client:forwards"
  let budget_exhausted = "client:retry_budget_exhausted"
  let breaker_trips = "client:breaker_trips"
  let breaker_fast_fails = "client:breaker_fast_fails"
  let orphan_replies = "client:orphan_replies"
  let c_negotiated = "client:codec_negotiated"
  let c_fallback = "client:codec_fallback"
  let served = "server:served"
  let rejected = "server:rejected"
  let malformed = "server:malformed"
  let evicted = "server:evicted"
  let expired_pre_admission = "server:expired_pre_admission"
  let expired_in_queue = "server:expired_in_queue"
  let doomed_in_queue = "server:doomed_in_queue"
  let drained = "server:drained"
  let drain_aborted_jobs = "server:drain_aborted_jobs"
  let s_negotiated = "server:codec_negotiated"
  let s_fallback = "server:codec_fallback"
end

let count ?by t name = Obs.Metrics.incr ?by (Obs.metrics t.obs) ~name

(* ---------------- server side ---------------- *)

(* [proto] is the protocol the request frame was decoded in: arguments
   are decoded, and results and user exceptions encoded, in its codec,
   so a payload always rides in the codec of the frame that carries
   it. *)
let handle_request_inner t (proto : Protocol.t) (req : Protocol.request) :
    Protocol.reply option =
  let codec = proto.Protocol.codec in
  let reply status payload =
    if req.Protocol.oneway then None
    else
      Some
        { Protocol.rep_id = req.Protocol.req_id; status; payload;
          nego_answer = "" }
  in
  count t Event.served;
  match Object_adapter.lookup t.oa req.Protocol.target.Objref.oid with
  | None ->
      reply
        (Protocol.Status_system_error
           (Printf.sprintf "no object with oid %S in this address space"
              req.Protocol.target.Objref.oid))
        ""
  | Some skel -> (
      match Skeleton.dispatch skel req.Protocol.operation with
      | None ->
          reply
            (Protocol.Status_system_error
               (Printf.sprintf "interface %s has no operation %S"
                  (Skeleton.type_id skel) req.Protocol.operation))
            ""
      | Some handler -> (
          (* The argument payload is untrusted wire data: decode it
             under the server policy's limits, like the envelope. *)
          let args =
            codec.Wire.Codec.decoder_limited t.policy.limits
              req.Protocol.payload
          in
          let results = codec.Wire.Codec.encoder () in
          match handler args results with
          | () -> reply Protocol.Status_ok (results.Wire.Codec.finish ())
          | exception Skeleton.User_exception { repo_id; encode } ->
              let e = codec.Wire.Codec.encoder () in
              encode e;
              reply (Protocol.Status_user_exception repo_id)
                (e.Wire.Codec.finish ())
          | exception Wire.Codec.Type_error m ->
              reply
                (Protocol.Status_system_error
                   (Printf.sprintf "marshal error in %S: %s" req.Protocol.operation m))
                ""
          | exception exn ->
              reply
                (Protocol.Status_system_error
                   (Printf.sprintf "implementation of %S failed: %s"
                      req.Protocol.operation (Printexc.to_string exn)))
                ""))

(* Dispatch with the server-side interceptor chain around it (Section 5:
   Orbix-style filters "triggered in the dispatch path"), and a server
   span around the whole thing. The span joins the caller's trace via
   the trace context in the request's trailer; requests without one (or
   with a malformed one) start a fresh root trace. *)
let handle_request t proto (req : Protocol.request) : Protocol.reply option =
  let span =
    if Obs.enabled t.obs then begin
      let context = Obs.Trace.decode_context req.Protocol.trace_ctx in
      let s =
        Obs.Trace.start_server ?context ~operation:req.Protocol.operation
          ~endpoint:
            (Objref.endpoint_to_string (Objref.endpoint req.Protocol.target))
          ()
      in
      s.Obs.Trace.req_id <- req.Protocol.req_id;
      Obs.Trace.note s "codec" proto.Protocol.codec.Wire.Codec.name;
      Some s
    end
    else None
  in
  let result =
    match Interceptor.apply_request t.server_chain req with
    | req -> (
        match handle_request_inner t proto req with
        | None -> None
        | Some rep -> Some (Interceptor.apply_reply t.server_chain req rep))
    | exception Interceptor.Reject reason ->
        if req.Protocol.oneway then None
        else
          Some
            {
              Protocol.rep_id = req.Protocol.req_id;
              status = Protocol.Status_system_error ("rejected: " ^ reason);
              payload = "";
              nego_answer = "";
            }
  in
  (match span with
  | None -> ()
  | Some s ->
      let outcome =
        match result with
        | None -> Obs.Trace.Ok (* oneway: dispatched, nothing to report *)
        | Some rep -> (
            match rep.Protocol.status with
            | Protocol.Status_ok -> Obs.Trace.Ok
            | Protocol.Status_user_exception id -> Obs.Trace.User_exception id
            | Protocol.Status_system_error m -> Obs.Trace.System_error m)
      in
      Obs.Trace.finish s outcome;
      Obs.observe t.obs
        ~name:("dispatch:" ^ req.Protocol.operation)
        (Obs.Trace.duration s);
      Obs.emit t.obs s);
  result

let serve_connection t sc =
  let comm = sc.scomm in
  (* Replies can come from several pool workers and the reader thread
     interleaved; the write lock keeps each framed message whole. A
     dispatched request's reply goes out in [proto], the protocol its
     request came in and its payload is encoded in. A pending
     negotiation answer rides the next reply out, after which the send
     side switches to the chosen protocol (DESIGN.md §13). *)
  let send_msg ?proto msg =
    Locked.with_lock sc.s_write (fun () ->
        match msg with
        | Protocol.Reply r -> (
            match Nego.take_answer sc.s_nego with
            | Some (tok, p) ->
                Communicator.send ?proto comm
                  (Protocol.Reply { r with Protocol.nego_answer = tok });
                Communicator.set_protocol ~dir:`Send comm p;
                meter_codec sc.s_meter p.Protocol.name
            | None -> Communicator.send ?proto comm msg)
        | _ -> Communicator.send ?proto comm msg)
  in
  let error_reply rep_id reason =
    send_msg
      (Protocol.Reply
         { Protocol.rep_id; status = Protocol.Status_system_error reason;
           payload = ""; nego_answer = "" })
  in
  (* The server half of negotiation, on the reader thread at offer-read
     time. The receive side switches at once: the offering client sends
     nothing more until it has our answer. *)
  let process_offer req =
    match
      Locked.with_lock sc.s_write (fun () ->
          Nego.offer sc.s_nego ~codecs:t.codecs ~compat:t.codec_compat req)
    with
    | Nego.Switch p ->
        Communicator.set_protocol ~dir:`Recv comm p;
        count t Event.s_negotiated
    | Nego.No_common -> count t Event.s_fallback
    | Nego.Ignored -> ()
  in
  (* A refusal is a diagnosable System_exception reply, never a dropped
     connection. Budget-expiry sheds are counted and worded as the
     Timeout-class outcome they are: nobody waits for the result. *)
  let refuse (req : Protocol.request) (r : Admit.refusal) =
    let event, reason =
      match r with
      | Admit.Draining -> (Event.rejected, Pool.refused_draining)
      | Admit.Over_cap ->
          ( Event.rejected,
            Printf.sprintf "too many pipelined requests (limit %d)"
              t.policy.max_pipelined )
      | Admit.Expired_at_decode ->
          ( Event.expired_pre_admission,
            "expired before admission: request deadline budget lapsed" )
      | Admit.Rejected reason -> (Event.rejected, reason)
      | Admit.Expired_awaiting_space ->
          ( Event.expired_pre_admission,
            "expired before admission: request deadline budget lapsed while \
             awaiting queue space" )
      | Admit.Expired_in_queue ->
          ( Event.expired_in_queue,
            "expired in queue: request deadline budget lapsed before execution" )
      | Admit.Doomed_in_queue ->
          ( Event.doomed_in_queue,
            "doomed in queue: remaining deadline budget below the \
             service-time estimate" )
      | Admit.Cancelled -> (Event.rejected, Pool.refused_cancelled)
    in
    count t event;
    if not req.Protocol.oneway then error_reply req.Protocol.req_id reason
  in
  let finish_dispatch proto req =
    match handle_request t proto req with
    | Some rep -> send_msg ~proto (Protocol.Reply rep)
    | None -> ()
  in
  (* Every uncount broadcasts: it may wake the drain in [shutdown]. *)
  let uncount f =
    with_lock t (fun () ->
        Locked.broadcast t.lock;
        f t.adm sc.s_adm)
  in
  let finish () = uncount Admit.finish in
  (* A failed reply means the connection died under it: close it so the
     reader thread unwinds and reaps it. *)
  let or_close f = try f () with _ -> ( try Communicator.close comm with _ -> ()) in
  let dispatch proto (req : Protocol.request) =
    let received_at = Unix.gettimeofday () in
    sc.s_last_active <- received_at;
    (* The wire budget is relative (no clock sync with the peer): anchor
       it to our own receive time. Conservative by the transit time: we
       may execute work the client has just given up on, never shed
       work it is still waiting for. *)
    let expiry =
      Option.map
        (fun b -> received_at +. (float_of_int b /. 1e6))
        req.Protocol.budget_us
    in
    match
      with_lock t (fun () ->
          match Admit.arrive t.adm sc.s_adm ~expiry ~now:received_at with
          | Admit.Run -> Ok t.pool
          | Admit.Refuse r -> Error r)
    with
    | Error r -> refuse req r
    | Ok None ->
        (* Thread-per-connection mode: dispatch inline on the reader
           thread, the paper's Fig. 5 loop. No queue, so decode is the
           only shed point. *)
        Fun.protect ~finally:finish (fun () -> finish_dispatch proto req)
    | Ok (Some pool) -> (
        let job () =
          Fun.protect ~finally:finish (fun () ->
              let run_started = Unix.gettimeofday () in
              match
                Admit.pickup ~expiry ~now:run_started
                  ~service_us:(Atomic.get t.service_ewma_us)
              with
              | Admit.Refuse r -> or_close (fun () -> refuse req r)
              | Admit.Run ->
                  or_close (fun () -> finish_dispatch proto req);
                  let sample_us =
                    int_of_float ((Unix.gettimeofday () -. run_started) *. 1e6)
                  in
                  (* EWMA (alpha = 1/8) via CAS so concurrent workers
                     never lose each other's updates. *)
                  let rec ewma_update () =
                    let cur = Atomic.get t.service_ewma_us in
                    let next =
                      if cur = 0 then sample_us
                      else cur + ((sample_us - cur) / 8)
                    in
                    if not (Atomic.compare_and_set t.service_ewma_us cur next)
                    then ewma_update ()
                  in
                  ewma_update ())
        in
        (* Runs iff the pool stops with this request still queued: a
           pipelined client learns at once that it never ran, and may
           re-send it elsewhere. *)
        let cancel () = refuse req (uncount Admit.cancel) in
        (* [?expire] caps any Block parking at the request's own budget. *)
        match Pool.submit pool ~cancel ?expire:expiry job with
        | `Accepted ->
            (* [Pool.depth] takes the pool lock: read it only when the
               gauge keeps it. *)
            if Obs.enabled t.obs then
              Obs.set_gauge t.obs ~name:"server:pool_depth"
                (float_of_int (Pool.depth pool))
        | (`Rejected _ | `Expired) as o ->
            refuse req (uncount (fun a c -> Admit.submitted a c o)))
  in
  let rec loop () =
    match Communicator.recv_opt comm with
    | Ok (Protocol.Request req) ->
        (match Object_adapter.forward t.oa req.Protocol.target.Objref.oid with
        | Some target ->
            (* The object has moved: answer with a GIOP-style
               LOCATION_FORWARD instead of dispatching. Answered inline
               like locate — it is control-plane traffic, never queued. *)
            sc.s_last_active <- Unix.gettimeofday ();
            (* A carried offer is deliberately NOT honoured here: only
               a [Reply] carries an answer, and the client treats a
               forward (like any answerless response) as fallback. *)
            if not req.Protocol.oneway then
              send_msg
                (Protocol.Locate_forward
                   { rep_id = req.Protocol.req_id; target })
        | None ->
            (* The frame's protocol, read before [process_offer] can
               re-point the receive side: an offering request and its
               reply stay in the protocol it came in. *)
            let proto = Communicator.protocol ~dir:`Recv comm in
            if req.Protocol.nego_offer <> "" then process_offer req;
            dispatch proto req);
        loop ()
    | Ok (Protocol.Locate_request { req_id; target }) ->
        (* GIOP-style locate: answered by the adapter, never dispatched
           (and never queued — it is the liveness probe). A registered
           forward counts as found — the peer knows where the object
           lives — and rides in the reply's trailer. *)
        sc.s_last_active <- Unix.gettimeofday ();
        let forward = Object_adapter.forward t.oa target.Objref.oid in
        let found =
          forward <> None || Object_adapter.lookup t.oa target.Objref.oid <> None
        in
        send_msg (Protocol.Locate_reply { rep_id = req_id; found; forward });
        loop ()
    | Ok (Protocol.Reply _ | Protocol.Locate_reply _ | Protocol.Locate_forward _)
      ->
        Log.warn (fun m -> m "unexpected reply on server connection from %s"
                     (Communicator.peer comm));
        loop ()
    | Error { Communicator.reason; req_id_hint } ->
        (* Decodable-but-invalid frame, fully consumed: the stream is
           still synchronized, so answer with a diagnosable error
           instead of silently dropping the connection. *)
        count t Event.malformed;
        Log.warn (fun m ->
            m "malformed frame from %s: %s" (Communicator.peer comm) reason);
        error_reply
          (Option.value req_id_hint ~default:0)
          ("malformed request: " ^ reason);
        loop ()
  in
  (* Whatever ends the connection — EOF or I/O failure on either recv or
     send, a damaged frame header, even a servant-thread bug — close it
     and drop it from the accepted list, so a long-lived server does not
     accumulate dead communicators. The close lives in the [finally] so
     that exit paths outside the explicit handlers below (e.g. a raising
     interceptor hook) also mark the communicator dead for the
     [server_connections] gauge. *)
  Fun.protect
    ~finally:(fun () ->
      (try Communicator.close comm with _ -> ());
      with_lock t (fun () ->
          t.accepted <- List.filter (fun c -> c != sc) t.accepted))
    (fun () ->
      try loop () with
      | Transport.Transport_error _ -> Communicator.close comm
      | Protocol.Protocol_error m ->
          Log.warn (fun m' ->
              m' "protocol error from %s: %s" (Communicator.peer comm) m);
          Communicator.close comm)

(* Admit a freshly accepted connection under [max_connections]. Past
   the bound the idle-longest connection is evicted (idle-LRU): prefer
   one with nothing in flight, fall back to the stalest overall. The
   evicted peer sees a clean close; a well-behaved client's connection
   cache transparently reopens on its next call. *)
let admit_connection t sc =
  let victim =
    with_lock t (fun () ->
        t.accepted <- sc :: t.accepted;
        let limit = t.policy.max_connections in
        if limit > 0 && List.length t.accepted > limit then begin
          let candidates = List.filter (fun c -> c != sc) t.accepted in
          let idle =
            List.filter (fun c -> c.s_adm.Admit.inflight = 0) candidates
          in
          let stalest l =
            List.fold_left
              (fun best c ->
                match best with
                | Some b when b.s_last_active <= c.s_last_active -> best
                | _ -> Some c)
              None l
          in
          match stalest (if idle <> [] then idle else candidates) with
          | None -> None
          | Some v ->
              t.accepted <- List.filter (fun c -> c != v) t.accepted;
              Some v
        end
        else None)
  in
  match victim with
  | None -> ()
  | Some v ->
      count t Event.evicted;
      (try Communicator.close v.scomm with _ -> ())

let start t =
  let listener =
    with_lock t (fun () ->
        if Option.is_some t.listener then None
        else begin
          let l = Transport.listen ~proto:t.transport ~host:t.host ~port:t.cfg_port in
          t.listener <- Some l;
          t.bound_port <- l.Transport.bound_port;
          t.adm.Admit.draining <- false;
          Mux.reopen t.cache;
          Some l
        end)
  in
  match listener with
  | None -> ()
  | Some l ->
      (* Worker creation happens outside the ORB lock: spawning a
         domain per worker is not instant, and nothing about it needs
         ORB state. [listener] is already set, so a concurrent start
         cannot race another pool into existence. *)
      (match with_lock t (fun () -> (t.policy.pool, t.pool)) with
      | Some cfg, None ->
          let p = Pool.create cfg in
          with_lock t (fun () -> t.pool <- Some p)
      | _ -> ());
      let accept_loop () =
        (* Inbound bytes are accounted to the listening endpoint (one
           bounded label per server), not per remote peer. *)
        let label =
          Objref.endpoint_to_string (t.transport, t.host, l.Transport.bound_port)
        in
        let rec loop backoff =
          match l.Transport.accept () with
          | chan ->
              let chan, s_meter = meter_channel t label chan in
              let comm = Communicator.wrap ~limits:t.policy.limits t.proto chan in
              let sc =
                {
                  scomm = comm;
                  s_write =
                    Locked.create ~name:"sconn.write"
                      ~rank:Locked.Rank.communicator;
                  s_last_active = Unix.gettimeofday ();
                  s_adm = Admit.conn ();
                  s_nego = Nego.server ();
                  s_meter;
                }
              in
              admit_connection t sc;
              ignore (Locked.spawn "orb.serve" (fun () -> serve_connection t sc));
              loop accept_backoff
          | exception Transport.Transport_error msg ->
              (* Two very different failures share this exception: the
                 listener closing under us (shutdown — exit quietly, even
                 if a restart has already opened the next listener) and
                 a transient resource failure such as fd exhaustion
                 under a connection flood (EMFILE). The latter must not
                 kill the accept loop: sleep — which also gives the
                 connection reaper time to return fds — and retry with
                 the backoff doubling up to a bound. *)
              if with_lock t (fun () ->
                     match t.listener with Some cur -> cur == l | None -> false)
              then begin
                Log.warn (fun m ->
                    m "transient accept failure: %s (retrying in %.0f ms)" msg
                      (backoff *. 1000.));
                Thread.delay backoff;
                loop (Float.min 1.0 (backoff *. 2.))
              end
        in
        loop accept_backoff
      in
      ignore (Locked.spawn "orb.accept" accept_loop)

(* ---------------- client connection teardown ---------------- *)

let mux_gauge t conn n =
  Obs.set_gauge t.obs ~name:conn.mx_gauge (float_of_int n)

(* Declare the connection dead and wake every waiter; the first death
   also closes the channel, which unblocks a reader parked inside a
   transport read. Every close of a client connection goes through
   here. It does NOT leave the cache: the next caller that picks it up
   fails fast in send phase, burns one retry-classified attempt, and
   reconnects — the stale-cached-connection semantics. *)
let mux_kill conn err =
  if
    Locked.with_lock conn.mx_lock (fun () ->
        Locked.broadcast conn.mx_lock;
        Mux.kill conn.mux err)
  then try Communicator.close conn.comm with _ -> ()

(* Shutdown in three phases. Phase 1 stops intake: the listener closes
   and [draining] makes every connection reject new requests with a
   diagnosable error. Phase 2 — only with [?drain_deadline] — is the
   grace window: wait up to that many seconds for [Admit]'s count of
   admitted, unanswered requests to reach zero, whether they run inline
   or in the pool (every uncount broadcasts the ORB lock). Phase 3
   force-closes whatever remains. Without [drain_deadline] phase 2 is
   skipped entirely (immediate shutdown, the historical behavior). *)
let shutdown ?drain_deadline t =
  let listener =
    with_lock t (fun () ->
        let l = t.listener in
        t.listener <- None;
        t.adm.Admit.draining <- true;
        l)
  in
  (match listener with Some l -> l.Transport.shutdown () | None -> ());
  (match (drain_deadline, listener) with
  | None, _ | _, None -> ()
  | Some grace, Some _ ->
      let deadline = Unix.gettimeofday () +. grace in
      let span =
        if Obs.enabled t.obs then
          Some
            (Obs.Trace.start_server ~operation:"orb.drain"
               ~endpoint:
                 (Objref.endpoint_to_string (t.transport, t.host, t.bound_port))
               ())
        else None
      in
      (* A wait reads no clock of its own: past a timeout, [deadline]
         is known to have passed. *)
      let aborted =
        with_lock t (fun () ->
            let rec go now =
              match Admit.settled t.adm ~deadline ~now with
              | Admit.Drained -> None
              | Admit.Aborted n -> Some n
              | Admit.Pending -> (
                  match Locked.wait_until t.lock deadline with
                  | `Woken -> go now
                  | `Timed_out -> go (Float.max now deadline))
            in
            go (Unix.gettimeofday ()))
      in
      let outcome =
        match aborted with
        | None ->
            count t Event.drained;
            Obs.Trace.Ok
        | Some n ->
            count ~by:n t Event.drain_aborted_jobs;
            Obs.Trace.System_error
              (Printf.sprintf "drain aborted: %d dispatches abandoned" n)
      in
      Option.iter
        (fun s ->
          Obs.Trace.finish s outcome;
          Obs.emit t.obs s)
        span);
  let conns, accepted, pool =
    with_lock t (fun () ->
        let cs = Mux.close t.cache in
        let acc = t.accepted in
        t.accepted <- [];
        let p = t.pool in
        t.pool <- None;
        (cs, acc, p))
  in
  (* Stop the pool before closing connections: abandoned jobs counted by
     the aborted drain must not start executing against half-closed
     channels. Workers stuck inside a job blocked on I/O are unblocked
     by the closes below (Pool.stop does not join them). *)
  (match pool with Some p -> ignore (Pool.stop p) | None -> ());
  List.iter
    (fun c ->
      mux_kill c (Transport.Transport_error "ORB shut down"))
    conns;
  (* Also close server-side connections so peers observe the shutdown and
     their connection caches reopen against a replacement. *)
  List.iter (fun sc -> try Communicator.close sc.scomm with _ -> ()) accepted

(* ---------------- exporting ---------------- *)

let objref_of t ~oid ~type_id =
  Objref.make ~proto:t.transport ~host:t.host ~port:(port t) ~oid ~type_id

let export t skel =
  let oid = Object_adapter.register t.oa skel in
  objref_of t ~oid ~type_id:(Skeleton.type_id skel)

let export_named t ~oid skel =
  Object_adapter.register_named t.oa ~oid skel;
  objref_of t ~oid ~type_id:(Skeleton.type_id skel)

let export_cached t ~key ~type_id build =
  let oid = Object_adapter.register_cached t.oa ~key build in
  objref_of t ~oid ~type_id

(* ---------------- client side: reply demultiplexer ---------------- *)

(* The per-connection reader thread: the only receiver this connection
   ever has. Its reads have no deadline — one firing between the frame
   header and body would desynchronize the stream for every in-flight
   call; per-call deadlines are enforced at the waiter's condition
   instead. It enters the transport read only while a reply is owed,
   so idle connections are read-free, which both the
   fault-injection plans (a [Stall_read] drawn at read-call time must
   land on the read for the call under test) and the thread accounting
   at shutdown depend on. A reply [Mux.deliver] cannot hand to its
   waiter means the stream no longer corresponds to what we sent:
   poisoned, killed, so no later call can be handed the wrong
   payload. *)
let mux_reader t conn =
  let mx = conn.mux and lock = conn.mx_lock in
  let rec await_work () =
    match Mux.reader mx with
    | Mux.Read -> true
    | Mux.Stop -> false
    | Mux.Idle ->
        Locked.wait lock;
        await_work ()
  in
  let poisoned rep_id what =
    count t Event.orphan_replies;
    mux_kill conn
      (System_exception
         (Printf.sprintf "reply id %d %s (connection dropped)" rep_id what))
  in
  let rec loop () =
    if Locked.with_lock lock await_work then
      match Communicator.recv conn.comm with
      | exception e -> mux_kill conn e
      | msg -> (
          match
            Locked.with_lock lock (fun () ->
                let d = Mux.deliver mx msg in
                if d == Mux.Delivered then Locked.broadcast lock;
                (d, mx.Mux.inflight))
          with
          | Mux.Delivered, n ->
              mux_gauge t conn n;
              loop ()
          | Mux.Orphan id, _ ->
              poisoned id "does not match any in-flight request"
          | Mux.Wrong_kind id, _ ->
              poisoned id "answers a different kind of request"
          | Mux.Not_a_reply, _ ->
              mux_kill conn
                (System_exception
                   "peer sent a non-reply where a reply was expected"))
  in
  loop ()

(* ---------------- client side ---------------- *)

(* Get the cached connection to an endpoint, opening one if needed
   (paper: "Connections are cached and reused in HeidiRMI, and only if
   there is no available connection is a new connection opened").

   The blocking [Transport.connect] happens OUTSIDE the ORB mutex — a
   slow or hung connect must not stall every concurrent call. The
   decisions are [Mux.lookup] and [Mux.install]: first dial wins, and
   after [shutdown] a miss fails at once (a permanent error) and a
   connect in flight is closed instead of cached.

   Returns the connection plus whether WE opened it just now: a fresh
   connection that then fails on receive means the request most likely
   reached a live server, so it is never retried (duplicate-dispatch
   risk); only a cached (possibly stale) connection justifies the
   reconnect-and-retry path. *)
let orb_closed = System_exception "ORB shut down: no new connections"

let get_connection t endpoint =
  match with_lock t (fun () -> Mux.lookup t.cache endpoint) with
  | Mux.Cached c -> (c, false)
  | Mux.Won | Mux.Shut -> raise orb_closed
  | Mux.Dial -> (
      let proto_name, host, port = endpoint in
      let chan = Transport.connect ~proto:proto_name ~host ~port in
      let chan, c_meter =
        meter_channel t (Objref.endpoint_to_string endpoint) chan
      in
      let c =
        { comm = Communicator.wrap t.proto chan;
          conn_lock =
            Locked.create ~name:"conn.send" ~rank:Locked.Rank.communicator;
          mx_lock = Locked.create ~name:"mux" ~rank:Locked.Rank.mux;
          mux =
            Mux.create ~limit:t.mux_cfg.max_in_flight ~negotiate:(t.codecs <> []);
          mx_gauge = "client:in_flight:" ^ Objref.endpoint_to_string endpoint;
          c_meter }
      in
      match with_lock t (fun () -> Mux.install t.cache endpoint c) with
      | Mux.Won ->
          count t Event.opened;
          (* Only the connection that enters the cache gets a reader. *)
          ignore (Locked.spawn "orb.mux_reader" (fun () -> mux_reader t c));
          (c, true)
      | Mux.Cached winner ->
          (try Communicator.close c.comm with _ -> ());
          (winner, false)
      | Mux.Dial | Mux.Shut ->
          (try Communicator.close c.comm with _ -> ());
          raise orb_closed)

(* Identity-aware drop for failure paths that hold the failed connection:
   with many waiters waking from one connection death at once, the first
   may drop-and-reconnect before the second reaches its handler. *)
let drop_this_connection t endpoint c =
  with_lock t (fun () -> Mux.remove t.cache endpoint c);
  mux_kill c (Transport.Transport_error "connection closed locally")

let next_req_id t = Atomic.fetch_and_add t.next_req_id 1

(* One failed attempt: its error, and whether the request provably did
   not execute — never sent, refused unexecuted by the server, or lost
   with a reused connection that had gone stale (the server cannot have
   dispatched what it read from a connection it was closing). Only an
   [unsent] failure may ever be sent again ([Retry.resend_safe]). *)
type failure = { err : exn; unsent : bool }

(* A failed exchange. [fatal] tells the caller whether the connection
   itself is tainted and must leave the cache (a call that timed out
   before sending, waiting for a slot or behind the codec offer, leaves
   it healthy). *)
exception Exchange_failed of { fatal : bool; failure : failure }

(* Decides again after every wakeup on [lock] until [decide] stops
   holding, or answers the hold once [deadline] has passed. The one wait
   with an optional deadline: [Locked.wait_until] is woken by the
   deadline service, so a caller wakes at once on a broadcast however
   far off its deadline is. *)
let rec hold_from lock deadline decide expired =
  let v = decide expired in
  if expired || not (Mux.holds v) then v
  else
    hold_from lock deadline decide
      (match deadline with
      | None ->
          Locked.wait lock;
          false
      | Some d -> Locked.wait_until lock d = `Timed_out)

let hold lock deadline decide =
  hold_from lock deadline decide
    (match deadline with Some d -> Unix.gettimeofday () >= d | None -> false)

(* Act on [Nego.answer]'s verdict on the reply to the connection's one
   offer. A failed offer needs no settling: every failure after
   admission kills the connection, and admission checks death before
   the gate. *)
let settle_offer t conn reply =
  let settle () =
    Locked.with_lock conn.mx_lock (fun () ->
        Mux.settle conn.mux;
        Locked.broadcast conn.mx_lock)
  in
  match Nego.answer ~codecs:t.codecs ~compat:t.codec_compat reply with
  | Nego.Chosen p ->
      Communicator.set_protocol conn.comm p;
      meter_codec conn.c_meter p.Protocol.name;
      count t Event.c_negotiated;
      settle ()
  | Nego.Unknown tok ->
      (* Kill before the calls held behind the offer send on it; they
         see a transport error (retry-classifiable). *)
      mux_kill conn
        (Transport.Transport_error
           (Printf.sprintf
              "connection to %s closed: peer answered an unknown codec"
              (Communicator.peer conn.comm)));
      raise
        (Exchange_failed
           {
             fatal = true;
             failure =
               {
                 err =
                   System_exception
                     (Printf.sprintf
                        "peer answered unknown codec %S in negotiation" tok);
                 unsent = false;
               };
           })
  | Nego.Fallback ->
      count t Event.c_fallback;
      settle ()

(* The client exchange: admit, marshal, send, await — each decision is
   [Mux]'s, under the demux lock; this is the shell that waits, sends
   and wakes (DESIGN.md §9). Admission fixes the protocol the message
   goes out in (the base protocol for the offer itself); the payload is
   marshalled in its codec after admission, outside both locks, so a
   frame never mixes two codecs, and the reply comes back with that
   protocol. [fresh] says this call opened [conn]: a receive failure on
   it may follow a dispatch, one on a reused connection is taken for a
   stale connection's. *)
let exchange t conn ~fresh msg ~payload ~deadline
    ~(span : Obs.Trace.span option) =
  let mx = conn.mux and lock = conn.mx_lock in
  let fail_ ~unsent ~fatal err =
    raise (Exchange_failed { fatal; failure = { err; unsent } })
  in
  let cell = Mux.cell msg in
  let oneway = cell.Mux.kind = Mux.Oneway in
  let verdict, inflight_now, proto =
    Locked.with_lock lock (fun () ->
        let v = hold lock deadline (fun expired -> Mux.admit mx cell ~expired) in
        (v, mx.Mux.inflight, Communicator.protocol conn.comm))
  in
  let offer =
    match verdict with
    | Mux.Admitted -> false
    | Mux.Admitted_offer -> true
    | Mux.Dead err -> fail_ ~unsent:true ~fatal:true err
    | why ->
        (* Never sent: the connection is healthy, just mid-offer or
           saturated. Not fatal — the cache entry stays. *)
        fail_ ~unsent:true ~fatal:false
          (Transport.Timeout
             (Printf.sprintf "timed out %s to %s"
                (if why == Mux.Behind_offer then "behind a codec negotiation"
                 else "waiting for an in-flight slot")
                (Communicator.peer conn.comm)))
  in
  if not oneway then begin
    mux_gauge t conn inflight_now;
    (* Monotone max via CAS: losing a race means someone recorded an
       even higher peak, so losing is winning. *)
    let rec bump () =
      let cur = Atomic.get t.mux_peak in
      if
        inflight_now > cur
        && not (Atomic.compare_and_set t.mux_peak cur inflight_now)
      then bump ()
    in
    bump ()
  end;
  let unregister ?(reoffer = false) () =
    mux_gauge t conn
      (Locked.with_lock lock (fun () ->
           if Mux.unregister mx cell ~reoffer then Locked.broadcast lock;
           mx.Mux.inflight))
  in
  let wire =
    match msg with
    | Protocol.Request r ->
        let payload =
          try payload proto
          with e ->
            unregister ~reoffer:offer ();
            raise e
        in
        (match span with
        | Some s -> Obs.Trace.note s "codec" proto.Protocol.codec.Wire.Codec.name
        | None -> ());
        Protocol.Request
          {
            r with
            Protocol.payload;
            nego_offer =
              (if offer then Protocol.Nego.offer_of t.codecs
               else r.Protocol.nego_offer);
          }
    | _ -> msg
  in
  let t0 = match span with Some _ -> Obs.Trace.now () | None -> 0. in
  (try
     Locked.with_lock conn.conn_lock (fun () ->
         Communicator.send ~proto conn.comm wire)
   with e ->
     (* A failed send may have left a partial frame on the wire: the
        stream is desynchronized for every in-flight call. Kill. *)
     unregister ();
     mux_kill conn e;
     fail_ ~unsent:true ~fatal:true e);
  let t1 =
    match span with
    | Some s ->
        let t1 = Obs.Trace.now () in
        s.Obs.Trace.send_s <- t1 -. t0;
        t1
    | None -> 0.
  in
  if oneway then begin
    unregister ();
    None
  end
  else
    (* The broadcast wakes the reader, parked while nothing is owed.
       Woken at registration instead, it would contend for the runtime
       while this thread still marshals and sends: a lone caller's mem
       echo cost about 10% more CPU. *)
    match
      Locked.with_lock lock (fun () ->
          Locked.broadcast lock;
          hold lock deadline (fun _ -> Mux.await mx cell))
    with
    | Mux.Replied ->
        let reply = Option.get cell.Mux.reply in
        (match span with
        | Some s -> s.Obs.Trace.wait_s <- Obs.Trace.now () -. t1
        | None -> ());
        (* The offer and its reply travel in the base protocol [proto],
           whatever the answer. *)
        if offer then settle_offer t conn reply;
        Some (proto, reply)
    | Mux.Dead err ->
        unregister ();
        fail_ ~unsent:(not fresh) ~fatal:true err
    | _ ->
        unregister ();
        (* The stream still owes us a reply we will never consume;
           leaving the connection alive would hand that reply to some
           later call. Kill it — which also heals an endpoint whose
           reads stall. Collateral waiters see a transport error
           (retry-classifiable), not our timeout. *)
        mux_kill conn
          (Transport.Transport_error
             (Printf.sprintf
                "connection to %s closed: a call deadline expired mid-stream"
                (Communicator.peer conn.comm)));
        fail_ ~unsent:false ~fatal:true
          (Transport.Timeout
             (Printf.sprintf "reply %d from %s timed out" cell.Mux.id
                (Communicator.peer conn.comm)))

(* Locates and probes carry no payload. *)
let no_payload (_ : Protocol.t) = ""

let count_failure t e =
  match e with Transport.Timeout _ -> count t Event.timeouts | _ -> ()

(* The retry taxonomy as the ORB applies it: [Retry.classify], plus
   - the two refusals a server sends only for requests it never executed
     ([Pool.never_executed]): CORBA's TRANSIENT with COMPLETED_NO, so a
     re-send cannot duplicate work. Overload refusals stay Permanent.
   - a breaker fast-fail: nothing was sent, and another placement may
     serve. Within one placement the breaker gate handles it, never
     [Retry.decide]. *)
let classify = function
  | System_exception m when Pool.never_executed m -> Retry.Transient
  | Breaker.Circuit_open _ -> Retry.Transient
  | e -> Retry.classify e

(* The never-executed refusal answering a call, as the exception the
   caller would otherwise see. *)
let refusal_of = function
  | Some (_, Protocol.Reply { Protocol.status = Protocol.Status_system_error m; _ })
    when Pool.never_executed m ->
      Some (System_exception m)
  | _ -> None

(* A report under [ticket] (none with the breaker off); a failure that
   trips the circuit is counted. *)
let breaker_failure t key ticket ~now e =
  match (t.breaker, ticket, classify e) with
  | Some br, Some tk, (Retry.Transient | Retry.Deadline) ->
      if Breaker.failure br key tk ~now then count t Event.breaker_trips
  | _ -> ()

let breaker_success t key ticket =
  match (t.breaker, ticket) with
  | Some br, Some tk -> Breaker.success br key tk
  | _ -> ()

(* Absolute deadline for one call: the per-call timeout, else the ORB
   default, else none. Computed once per call; every attempt, probe and
   placement of the call shares it. *)
let call_deadline t timeout =
  match (timeout, t.call_timeout) with
  | Some s, _ | None, Some s -> Some (Unix.gettimeofday () +. s)
  | None, None -> None

(* ---------------- replica selection ---------------- *)

(* In-flight hint for one endpoint: the cached connection's demux
   counter. Caller holds the ORB mutex (for the connection table); the
   counter itself is written under its demux lock, so this is a hint,
   not an invariant — exactly what load balancing needs. No cached
   connection counts as idle. *)
let inflight_hint t ep =
  match Hashtbl.find_opt t.cache.Mux.conns ep with
  | Some c -> c.mux.Mux.inflight
  | None -> 0

(* Power-of-two-choices over per-endpoint in-flight counts: draw two
   candidates, keep the less loaded — near-optimal load spread for a
   fraction of least-loaded's bookkeeping (the classic balls-into-bins
   result). Draws happen under the ORB mutex together with the
   in-flight reads so the two hints are coherent. *)
let pick_endpoint t = function
  | [] -> None
  | [ ep ] -> Some ep
  | candidates ->
      let arr = Array.of_list candidates in
      let n = Array.length arr in
      Some
        (with_lock t (fun () ->
             let a = arr.(Random.State.int t.rng n) in
             let b = arr.(Random.State.int t.rng n) in
             if inflight_hint t b < inflight_hint t a then b else a))

(* The half-open probe: a single-attempt Locate_request to one specific
   replica, under the call's deadline. Any decoded locate answer (found
   or not, forwarded or not) proves the endpoint is serving again. *)
let probe t target ~endpoint ~deadline =
  let req_id = next_req_id t in
  let msg =
    Protocol.Locate_request
      { req_id; target = Objref.at_endpoint target endpoint }
  in
  let conn, fresh = get_connection t endpoint in
  match exchange t conn ~fresh msg ~payload:no_payload ~deadline ~span:None with
  | _ -> ()
  | exception Exchange_failed { fatal; failure } ->
      if fatal then drop_this_connection t endpoint conn;
      raise failure.err

(* One placement's attempts, shared by the invocation path and
   [locate], all under the call's [deadline]. Each attempt picks a
   replica (power-of-two-choices, breaker-open endpoints skipped),
   passes that endpoint's circuit-breaker gate and sends. Every failed
   attempt becomes one [failure], and [Retry.decide] alone says whether
   another attempt follows: on this replica or the next (failover),
   under the one [max_attempts] and the client's retry budget. A gate
   that finds the endpoint unusable (fast-fail, failed probe) re-picks
   another available replica without spending an attempt, and ends the
   placement when there is none: a backoff would only meet the open
   circuit again.
   [make_msg] builds the wire message for the chosen endpoint's
   single-endpoint view, so every envelope target stays parseable by
   pre-replication peers; [payload] fills a request's payload in each
   attempt's protocol (see [exchange]), and the answer comes back paired
   with that protocol. [notify] feeds each failed attempt to the client
   interceptor chain. The placement's last failure is returned, not
   raised: the caller may move the call to another placement. *)
let request_reply t target ~make_msg ~payload ~deadline ~notify ~span =
  let eps = Objref.endpoints target in
  let multi = match eps with _ :: _ :: _ -> true | _ -> false in
  (* The wire budget for ONE attempt: the remaining slice of the call
     deadline, re-read at each (re)send so a retry or failover carries
     what is actually left, not the original allowance. Relative µs —
     no clock synchronization with the server is assumed. *)
  let budget_now () =
    match deadline with
    | Some d when t.propagate_deadlines ->
        Some (max 0 (int_of_float ((d -. Unix.gettimeofday ()) *. 1e6)))
    | Some _ | None -> None
  in
  let available ~now ep =
    match t.breaker with
    | None -> true
    | Some br -> Breaker.available br (Objref.endpoint_to_string ep) ~now
  in
  (* Endpoints that already failed during THIS call. Once every
     available endpoint has been tried the set clears: a long retry
     budget may revisit (the per-endpoint breakers decide whether it
     should). *)
  let tried = ref [] in
  let note_tried ep = if not (List.mem ep !tried) then tried := ep :: !tried in
  let candidates ~now =
    let avail = List.filter (available ~now) eps in
    match List.filter (fun ep -> not (List.mem ep !tried)) avail with
    | [] ->
        tried := [];
        avail
    | untried -> untried
  in
  let count_failover () = if multi then count t Event.failovers in
  let give_up f =
    notify f.err;
    Error f
  in
  (* The breaker gate at the attempt's [now]: [Ok ticket] lets the
     attempt through ([None] with the breaker off); [Error err] says the
     endpoint is unusable now — tripped (possibly between selection and
     gate), or its half-open probe, one lightweight Locate_request ping,
     found it still down. A probe that succeeds closed the circuit, so
     the gate is asked again for the call's own ticket. *)
  let rec gate ep key ~now =
    match t.breaker with
    | None -> Ok None
    | Some br -> (
        match Breaker.before_call br key ~now with
        | Breaker.Proceed tk -> Ok (Some tk)
        | Breaker.Fast_fail ->
            count t Event.breaker_fast_fails;
            Error
              (Breaker.Circuit_open
                 (Printf.sprintf "circuit open for endpoint %s" key))
        | Breaker.Probe tk -> (
            match probe t target ~endpoint:ep ~deadline with
            | () ->
                Breaker.success br key tk;
                gate ep key ~now
            | exception e ->
                (* Whatever its class: only the probe's report ends
                   [Half_open]. *)
                if Breaker.failure br key tk ~now:(Unix.gettimeofday ()) then
                  count t Event.breaker_trips;
                count_failure t e;
                Error e))
  in
  let send ep key ticket =
    match get_connection t ep with
    | exception e -> Error { err = e; unsent = true }
    | conn, fresh -> (
        let msg = make_msg (Objref.at_endpoint target ep) (budget_now ()) in
        match exchange t conn ~fresh msg ~payload ~deadline ~span with
        | resp -> (
            match refusal_of resp with
            | Some e -> Error { err = e; unsent = true }
            | None ->
                breaker_success t key ticket;
                (* Successes replenish the retry budget — the ~10%
                   ratio that keeps the aggregate retry rate bounded. *)
                Retry.Budget.deposit t.retry_budget;
                Ok resp)
        | exception Exchange_failed { fatal; failure } ->
            (* Never leave a failed connection poisoning the cache —
               unless the failure says the connection itself is fine
               (e.g. an admission timeout on a saturated demux). *)
            if fatal then drop_this_connection t ep conn;
            Error failure)
  in
  (* [gate_spins] bounds the selection/gate race: an endpoint can trip
     between the read-only availability check and [before_call]. *)
  let rec attempt n gate_spins =
    (* One clock read per attempt: selection, the breaker gate and the
       deadline check all see the same [now]. When every replica's
       breaker is open, gate on the primary anyway: [before_call] then
       either fast-fails (counted exactly as in the single-endpoint
       case) or grants a probe slot that opened this instant. *)
    let now = Unix.gettimeofday () in
    let ep =
      match pick_endpoint t (candidates ~now) with
      | Some ep -> ep
      | None -> Objref.endpoint target
    in
    let key = Objref.endpoint_to_string ep in
    match deadline with
    | Some d when now >= d ->
        (* An attempt that cannot answer in time is not sent: the server
           would shed it as expired anyway — with propagation off it
           would even execute, pure zombie work. *)
        let err =
          Transport.Timeout
            (Printf.sprintf "call deadline expired before attempt %d" n)
        in
        count_failure t err;
        failed n ep { err; unsent = true } ~now
    | _ -> (
        match gate ep key ~now with
        | Error err ->
            note_tried ep;
            let others =
              List.exists (fun e -> e <> ep && available ~now e) eps
            in
            if others && gate_spins < 2 * List.length eps then begin
              count_failover ();
              attempt n (gate_spins + 1)
            end
            else give_up { err; unsent = true }
        | Ok ticket -> (
            match send ep key ticket with
            | Ok resp -> Ok resp
            | Error f ->
                let now = Unix.gettimeofday () in
                breaker_failure t key ticket ~now f.err;
                count_failure t f.err;
                failed n ep f ~now))
  (* The one retry decision, for failed attempt [n] on [ep] at [now]. *)
  and failed n ep f ~now =
    match
      Retry.decide t.retry ~budget:t.retry_budget ~attempt:n (classify f.err)
        ~unsent:f.unsent ~deadline ~now
    with
    | Retry.Give_up -> give_up f
    | Retry.Exhausted ->
        (* The client fleet is already retrying at its bound: fail fast
           (Permanent class) instead of joining the storm. *)
        count t Event.budget_exhausted;
        give_up
          {
            f with
            err =
              Retry.Budget_exhausted
                (Printf.sprintf "retry budget exhausted (last error: %s)"
                   (Printexc.to_string f.err));
          }
    | Retry.Retry_after nap ->
        notify f.err;
        count t Event.retries;
        (match span with
        | Some s -> s.Obs.Trace.retries <- s.Obs.Trace.retries + 1
        | None -> ());
        note_tried ep;
        count_failover ();
        Thread.delay nap;
        attempt (n + 1) 0
  in
  attempt 1 0

(* ---------------- client spans ---------------- *)

let start_client_span t target ~op =
  if Obs.enabled t.obs then begin
    let s =
      Obs.Trace.start_client ~operation:op
        ~endpoint:(Objref.endpoint_to_string (Objref.endpoint target))
        ()
    in
    (match t.breaker with
    | Some br ->
        s.Obs.Trace.breaker <-
          Some
            (Breaker.state_to_string
               (Breaker.state br
                  (Objref.endpoint_to_string (Objref.endpoint target))))
    | None -> ());
    Some s
  end
  else None

let outcome_of_exn = function
  | Remote_exception { repo_id; _ } -> Obs.Trace.User_exception repo_id
  | System_exception m -> Obs.Trace.System_error m
  | e -> Obs.Trace.Failed (Printexc.to_string e)

let finish_client_span t span outcome =
  match span with
  | None -> ()
  | Some s ->
      Obs.Trace.finish s outcome;
      Obs.observe t.obs
        ~name:("invoke:" ^ s.Obs.Trace.operation)
        (Obs.Trace.duration s);
      Obs.emit t.obs s

(* Runs [f] inside a client span for one call, finished with the call's
   outcome. *)
let with_client_span t target ~op f =
  let span = start_client_span t target ~op in
  match f span with
  | result ->
      finish_client_span t span Obs.Trace.Ok;
      result
  | exception e ->
      finish_client_span t span (outcome_of_exn e);
      raise e

(* One call's payload, marshalled on demand in the codec of the protocol
   an attempt sends in, at most once per codec: a retry or failover onto
   a connection with the same codec reuses the bytes. [seed] is an
   encoding the caller already holds. Marshal time adds up in the
   span. *)
let payload_encoder ?seed ~span marshal =
  let encoded = ref (Option.to_list seed) in
  fun (p : Protocol.t) ->
    let codec = p.Protocol.codec in
    match List.assq_opt codec !encoded with
    | Some payload -> payload
    | None ->
        let t0 = match span with Some _ -> Obs.Trace.now () | None -> 0. in
        let e = codec.Wire.Codec.encoder () in
        marshal e;
        let payload = e.Wire.Codec.finish () in
        encoded := (codec, payload) :: !encoded;
        (match span with
        | Some s ->
            let dt = Obs.Trace.now () -. t0 in
            let m = s.Obs.Trace.marshal_s in
            s.Obs.Trace.marshal_s <- (if Float.is_nan m then dt else m +. dt)
        | None -> ());
        payload

(* The forward cache is keyed by the logical target's printed form —
   the same identity the application holds. *)
let cached_forward t target =
  Smap.find_opt (Objref.to_string target) (Atomic.get t.fwd_cache)

let note_forward t target fwd =
  Locked.update t.fwd_cache (fun m ->
      (Smap.add (Objref.to_string target) fwd m, ()));
  count t Event.forwards

let invalidate_forward t target =
  Locked.update t.fwd_cache (fun m ->
      (Smap.remove (Objref.to_string target) m, ()))

(* Redirect chains are honoured up to this depth per call; past it the
   servers are pointing at each other and the call fails loudly. *)
let max_forward_hops = 4

(* The invocation core: one call, every placement under one [deadline].
   The caller's trace context rides in the request's trailer; disabled
   tracing sends the empty context, which adds no entry.
   [payload] encodes the arguments in each attempt's protocol (see
   [payload_encoder]); the client interceptors see the request before
   any attempt, so with an empty payload. The answer is the reply
   payload with the codec it travelled in.

   A placement is where [request_reply] spends its attempts: a cached or
   just-received forward, the logical target, or — once, when the caller
   passes [refresh] — the logical target resolved again. A placement
   that fails [Retry.resend_safe]ly moves the call on: from a forward to
   the logical target, from the logical target to [refresh ()]. Any
   other failure ends the call: at-most-once outranks the redirect and
   the naming cache alike. *)
let invoke_spanned t target ~op ~oneway ~deadline ?refresh ~span payload =
  let req_id = next_req_id t in
  (match span with Some s -> s.Obs.Trace.req_id <- req_id | None -> ());
  let trace_ctx =
    match span with Some s -> Obs.Trace.encode_context s | None -> ""
  in
  let req =
    Interceptor.apply_request t.client_chain
      {
        Protocol.req_id;
        target;
        operation = op;
        oneway;
        payload = "";
        trace_ctx;
        budget_us = None;
        nego_offer = "";
      }
  in
  (* An interceptor's rewrite of the oneway flag is honoured: the
     exchange waits for a reply by the flag the wire message carries. *)
  let notify e = Interceptor.apply_error t.client_chain req e in
  (* [budget] is stamped by [request_reply] per attempt from the call
     deadline, so the wire always carries what is actually left. *)
  let make_msg tgt budget =
    Protocol.Request { req with Protocol.target = tgt; budget_us = budget }
  in
  let rec start ~refresh logical =
    match cached_forward t logical with
    | Some fwd -> call ~refresh ~logical ~hops:1 ~via_forward:true fwd
    | None -> call ~refresh ~logical ~hops:0 ~via_forward:false logical
  (* [actual] is where the call goes this placement: the logical target,
     a cached redirect, or a Locate_forward received mid-call. *)
  and call ~refresh ~logical ~hops ~via_forward actual =
    match request_reply t actual ~make_msg ~payload ~deadline ~notify ~span with
    | Error f -> (
        (* Whatever the failure, stop trusting a redirect that failed. *)
        if via_forward then invalidate_forward t logical;
        match refresh with
        | _ when not (Retry.resend_safe (classify f.err) ~unsent:f.unsent) ->
            raise f.err
        | _ when via_forward ->
            call ~refresh ~logical ~hops ~via_forward:false logical
        | Some refresh -> start ~refresh:None (refresh ())
        | None -> raise f.err)
    | Ok None -> None
    | Ok (Some (proto, Protocol.Reply reply)) -> (
        let { Protocol.status; payload; _ } =
          Interceptor.apply_reply t.client_chain req reply
        in
        let codec = proto.Protocol.codec in
        match status with
        | Protocol.Status_ok -> Some (codec, payload)
        | Protocol.Status_user_exception repo_id ->
            raise (Remote_exception { repo_id; payload; codec })
        | Protocol.Status_system_error m -> raise (System_exception m))
    | Ok (Some (_, Protocol.Locate_forward { target = fwd; _ })) ->
        if hops >= max_forward_hops then
          raise
            (System_exception
               (Printf.sprintf
                  "location-forward chain exceeded %d hops for %s"
                  max_forward_hops (Objref.to_string logical)));
        (* A GIOP-style redirect: remember it for every later call on
           this logical target, then re-issue this one transparently.
           Nothing dispatched — re-sending is duplicate-safe. *)
        note_forward t logical fwd;
        call ~refresh ~logical ~hops:(hops + 1) ~via_forward:true fwd
    | Ok (Some _) ->
        (* [Mux.deliver] hands a request only a reply or a forward. *)
        assert false
  in
  start ~refresh req.Protocol.target

(* GIOP-style LocateRequest: does the peer's adapter know this oid?
   Locate (like the breaker's half-open probe) is control-plane traffic:
   it carries no trace context and opens no span. A reply carrying a
   forward — in either encoding — counts as found: the peer knows where
   the object lives. *)
let locate t ?timeout target =
  let req_id = next_req_id t in
  (* Locate carries no budget: it is control-plane traffic, like the
     breaker's half-open probe, and its envelope has no trailer. *)
  let make_msg tgt _budget = Protocol.Locate_request { req_id; target = tgt } in
  match
    request_reply t target ~make_msg ~payload:no_payload
      ~deadline:(call_deadline t timeout) ~notify:ignore ~span:None
  with
  | Error f -> raise f.err
  | Ok (Some (_, Protocol.Locate_reply { found; _ })) -> found
  | Ok _ ->
      (* [Mux.deliver] hands a locate only a locate reply or a forward,
         and a forward counts as found. *)
      true

let invoke_with t target ~op ~oneway ~deadline ?refresh marshal =
  with_client_span t target ~op (fun span ->
      match
        invoke_spanned t target ~op ~oneway ~deadline ?refresh ~span
          (payload_encoder ~span marshal)
      with
      | Some (codec, payload) ->
          let t1 = match span with Some _ -> Obs.Trace.now () | None -> 0. in
          let d = codec.Wire.Codec.decoder payload in
          (match span with
          | Some s -> s.Obs.Trace.unmarshal_s <- Obs.Trace.now () -. t1
          | None -> ());
          Some d
      | None -> None)

let invoke t target ~op ?(oneway = false) ?timeout marshal =
  invoke_with t target ~op ~oneway ~deadline:(call_deadline t timeout) marshal

(* A smart proxy (Section 5: Orbix smart proxies / Visibroker smart
   stubs). It keys its memo on the arguments encoded in this ORB's base
   codec; a call reuses that encoding when its connection speaks the
   base codec, and caches the reply with the codec it came in. *)
let smart_proxy t ?capacity ?invalidate_on target =
  let invoker target ~op args marshal =
    let deadline = call_deadline t None in
    with_client_span t target ~op (fun span ->
        match
          invoke_spanned t target ~op ~oneway:false ~deadline ~span
            (payload_encoder ~seed:args ~span marshal)
        with
        | Some reply -> reply
        | None ->
            (* Reachable when an interceptor rewrites the call to oneway:
               there is no reply payload to cache or decode. Diagnosable
               failure, not a dead proxy thread. *)
            raise
              (System_exception
                 (Printf.sprintf
                    "smart proxy: operation %S completed as oneway, no reply \
                     to cache"
                    op)))
  in
  Smart.create ?capacity ?invalidate_on ~codec:t.proto.Protocol.codec invoker
    target

(* Reads event counters out of one snapshot of the ORB's registry; a
   counter never bumped reads 0. *)
let counters t =
  let m = Obs.Metrics.snapshot (Obs.metrics t.obs) in
  fun name -> Option.value (List.assoc_opt name m.counters) ~default:0

let connections_opened t = counters t Event.opened
let requests_served t = counters t Event.served

type stats = {
  opened : int;
  served : int;
  retries : int;
  timeouts : int;
  failovers : int;
  forwards : int;
  breaker_trips : int;
  breaker_fast_fails : int;
  breaker_states : (string * string) list;
  server_connections : int;
  rejected : int;
  expired_pre_admission : int;
  expired_in_queue : int;
  retry_budget_balance : int;
  retry_budget_exhaustions : int;
  evicted : int;
  drains_clean : int;
  drain_aborted_jobs : int;
  pool_depth : int;
  pool_active : int;
  mux_in_flight : int;
  mux_peak_in_flight : int;
  codec_negotiations : int;
  codec_fallbacks : int;
}

(* A typed view over one snapshot of the ORB's [Obs] registry, plus
   gauges read now: live connections, mux in flight, breaker states,
   the retry budget's balance and the pool's depth and active workers. *)
let stats t =
  let server_connections, mux_in_flight, pool =
    with_lock t (fun () ->
        (* Count only live connections: a closed communicator may linger
           in [t.accepted] until its serving thread finishes unwinding,
           and must not inflate the gauge. *)
        ( List.length
            (List.filter
               (fun c -> not (Communicator.is_closed c.scomm))
               t.accepted),
          (* Racy-by-design snapshot of the per-connection counters:
             each is written under its own demux lock; the sum is a
             point-in-time gauge, not an invariant. *)
          Hashtbl.fold
            (fun _ c acc -> acc + c.mux.Mux.inflight)
            t.cache.Mux.conns 0,
          t.pool ))
  in
  let breaker_states =
    match t.breaker with
    | Some br ->
        List.map
          (fun (key, st) -> (key, Breaker.state_to_string st))
          (Breaker.states br)
    | None -> []
  in
  (* Pool introspection outside the ORB lock: the pool has its own. *)
  let pool_depth, pool_active =
    match pool with Some p -> (Pool.depth p, Pool.active p) | None -> (0, 0)
  in
  let c = counters t in
  {
    opened = c Event.opened;
    served = c Event.served;
    retries = c Event.retries;
    timeouts = c Event.timeouts;
    failovers = c Event.failovers;
    forwards = c Event.forwards;
    breaker_trips = c Event.breaker_trips;
    breaker_fast_fails = c Event.breaker_fast_fails;
    breaker_states;
    server_connections;
    rejected = c Event.rejected;
    expired_pre_admission = c Event.expired_pre_admission;
    expired_in_queue = c Event.expired_in_queue + c Event.doomed_in_queue;
    retry_budget_balance = Retry.Budget.balance t.retry_budget;
    retry_budget_exhaustions = c Event.budget_exhausted;
    evicted = c Event.evicted;
    drains_clean = c Event.drained;
    drain_aborted_jobs = c Event.drain_aborted_jobs;
    pool_depth;
    pool_active;
    mux_in_flight;
    mux_peak_in_flight = Atomic.get t.mux_peak;
    codec_negotiations = c Event.c_negotiated + c Event.s_negotiated;
    codec_fallbacks = c Event.c_fallback + c Event.s_fallback;
  }

let breaker_state t target =
  match t.breaker with
  | None -> None
  | Some br ->
      Some
        (Breaker.state br (Objref.endpoint_to_string (Objref.endpoint target)))

(* Server-side location forwarding: after [set_forward], requests and
   locates naming [oid] on this ORB are answered with a GIOP-style
   redirect to [target] instead of being dispatched. *)
let set_forward t ~oid target = Object_adapter.set_forward t.oa ~oid target
let clear_forward t ~oid = Object_adapter.clear_forward t.oa ~oid

let key_counter = Atomic.make 1
let servant_key () = Atomic.fetch_and_add key_counter 1

(* ------------------------------------------------------------------ *)
(* Bootstrap naming                                                    *)
(* ------------------------------------------------------------------ *)

(* The paper's object references are self-contained, but something must
   hand out the *first* one. HeidiRMI's answer is the bootstrap port
   (Section 3.1); this puts a name registry behind it at a well-known
   oid, so a client that knows only host:port can resolve its way in. *)
module Bootstrap = struct
  let type_id = "IDL:Heidi/Bootstrap:1.0"
  let oid = "bootstrap"

  let skeleton t names =
    Skeleton.create ~type_id
      [
        ( "bind",
          fun args _res ->
            let name = args.Wire.Codec.get_string () in
            let target = Serial.get_byref args in
            with_lock t (fun () ->
                match target with
                | Some o -> Hashtbl.replace names name o
                | None -> Hashtbl.remove names name) );
        ( "resolve",
          fun args res ->
            let name = args.Wire.Codec.get_string () in
            match with_lock t (fun () -> Hashtbl.find_opt names name) with
            | Some o -> Serial.put_byref res (Some o)
            | None -> failwith (Printf.sprintf "bootstrap: name %S is not bound" name)
        );
        ( "unbind",
          fun args _res ->
            let name = args.Wire.Codec.get_string () in
            with_lock t (fun () -> Hashtbl.remove names name) );
        ( "list",
          fun _args res ->
            let names =
              with_lock t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) names [])
            in
            let names = List.sort compare names in
            res.Wire.Codec.put_len (List.length names);
            List.iter res.Wire.Codec.put_string names );
      ]

  let serve t =
    let names = Hashtbl.create 16 in
    let boot = export_named t ~oid (skeleton t names) in
    with_lock t (fun () -> t.bootstrap_registry <- Some names);
    boot

  let reference ~proto ~host ~port =
    Objref.make ~proto ~host ~port ~oid ~type_id

  let bind t ~name objref =
    with_lock t (fun () ->
        match t.bootstrap_registry with
        | Some names -> Hashtbl.replace names name objref
        | None -> invalid_arg "Bootstrap.bind: serve this ORB first")

  (* A two-way call here returns [None] only when a client interceptor
     rewrote it to oneway: there is no reply to decode. *)
  let reply op = function
    | Some d -> d
    | None ->
        raise
          (System_exception
             (Printf.sprintf
                "bootstrap: operation %S completed as oneway, no reply" op))

  let resolve t boot ~name =
    let d =
      reply "resolve"
        (invoke t boot ~op:"resolve" (fun e -> e.Wire.Codec.put_string name))
    in
    match Serial.get_byref d with
    | Some r -> r
    | None -> raise (System_exception "bootstrap returned a nil reference")

  let unbind t boot ~name =
    ignore (invoke t boot ~op:"unbind" (fun e -> e.Wire.Codec.put_string name))

  let list_names t boot =
    let d = reply "list" (invoke t boot ~op:"list" (fun _ -> ())) in
    let n = d.Wire.Codec.get_len () in
    List.init n (fun _ -> d.Wire.Codec.get_string ())
end

(* ------------------------------------------------------------------ *)
(* Lease-based naming facade                                           *)
(* ------------------------------------------------------------------ *)

(* [Naming] (the compilation unit) is ORB-independent; this facade binds
   its two halves to a live ORB: [serve] exports the servant, the client
   calls go through [invoke], and [call] adds the refresh loop the lease
   protocol implies — re-resolve on lease expiry (inside [current]) or
   when every replica of the cached set is unreachable. *)
module Naming = struct
  include Naming

  let serve ?config ?(oid = Naming.default_oid) t =
    let registry = Naming.create ?config () in
    let nref = export_named t ~oid (Naming.skeleton registry) in
    (registry, nref)

  let invoker ?timeout t : Naming.invoker =
   fun target ~op marshal -> invoke t target ~op ?timeout marshal

  let register ?timeout t nref ~name provider ~ttl =
    Naming.register_via (invoker ?timeout t) nref ~name provider ~ttl

  let unregister ?timeout t nref ~name provider =
    Naming.unregister_via (invoker ?timeout t) nref ~name provider

  let resolve ?timeout t nref ~name =
    Naming.resolve_via (invoker ?timeout t) nref ~name

  let list ?timeout t nref = Naming.list_via (invoker ?timeout t) nref

  let resolver ?timeout t nref ~name =
    Naming.resolver_via (invoker ?timeout t) nref ~name

  (* One call through a resolver, under one deadline. When the cached
     placement fails [Retry.resend_safe]ly, the lease cache is dropped
     and the call moves, once, to the re-resolved placement: the
     invocation's last placement (see [invoke_spanned]). Both resolves
     run under the call's deadline too. *)
  let call t rs ~op ?(oneway = false) ?timeout marshal =
    let deadline = call_deadline t timeout in
    let current () =
      Naming.current_via
        (fun target ~op marshal ->
          invoke_with t target ~op ~oneway:false ~deadline marshal)
        rs
    in
    invoke_with t (current ()) ~op ~oneway ~deadline
      ~refresh:(fun () ->
        Naming.invalidate rs;
        current ())
      marshal
end

(* ------------------------------------------------------------------ *)
(* Observability facade                                                *)
(* ------------------------------------------------------------------ *)

(* Re-export the obs library under the ORB's namespace and add the one
   piece that needs ORB types: a stock interceptor feeding the event
   counters, composable with user chains on either side. *)
module Obs = struct
  include Obs

  let interceptor obs =
    Interceptor.make "obs-metrics"
      ~on_request:(fun req ->
        incr obs ~name:("req:" ^ req.Protocol.operation);
        req)
      ~on_reply:(fun req rep ->
        (match rep.Protocol.status with
        | Protocol.Status_ok -> incr obs ~name:("ok:" ^ req.Protocol.operation)
        | Protocol.Status_user_exception _ ->
            incr obs ~name:("uexn:" ^ req.Protocol.operation)
        | Protocol.Status_system_error _ ->
            incr obs ~name:("serr:" ^ req.Protocol.operation));
        rep)
      ~on_error:(fun req _e ->
        incr obs ~name:("err:" ^ req.Protocol.operation))
end
