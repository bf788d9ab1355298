(* Call tracing: one span per invocation side, correlated across address
   spaces by a trace context carried in the wire protocol's
   service-context slot (see Protocol.request.trace_ctx in the ORB). *)

type kind = Client | Server

type outcome =
  | Ok
  | User_exception of string
  | System_error of string
  | Failed of string

type span = {
  trace_id : string;
  span_id : string;
  parent_id : string option;
  kind : kind;
  operation : string;
  endpoint : string;
  started_at : float;
  mutable req_id : int;
  mutable finished_at : float;  (* nan until finished *)
  mutable marshal_s : float;  (* client phase timings; nan = not timed *)
  mutable send_s : float;
  mutable wait_s : float;
  mutable unmarshal_s : float;
  mutable retries : int;
  mutable breaker : string option;
  mutable outcome : outcome option;
  mutable notes : (string * string) list;
}

(* Monotonic-enough clock: the repo standardizes on gettimeofday for
   deadlines and bench loops, so spans use the same time base and their
   timestamps are directly comparable with call deadlines. *)
let now () = Unix.gettimeofday ()

(* ---------------- id generation ---------------- *)

(* Ids must be unique across address spaces (a trace spans processes),
   so the generator is seeded from wall clock + pid, not deterministic.
   Random.State is not thread-safe; one global lock used to guard one
   global state, which worker domains would turn into a cross-domain
   serialization point on the traced-call hot path. So each domain gets
   its own state via DLS, with the domain id folded into the seed so
   sibling domains (which may initialize within the same microsecond)
   draw from distinct streams. The state still travels with a lock —
   per-domain, so never contended across domains — because systhreads
   of one domain share their domain's cell, and a thread switch at an
   allocation point mid-draw could otherwise hand two threads the same
   generator position (duplicate ids). *)
let id_state =
  Locked.new_domain_local (fun () ->
      ( Locked.create ~name:"trace.ids" ~rank:Locked.Rank.trace_ids,
        Random.State.make
          [|
            Unix.getpid ();
            int_of_float (Unix.gettimeofday () *. 1e6) land 0x3FFFFFFF;
            Locked.domain_id ();
          |] ))

(* One 64-bit draw yields 16 hex digits by nibble slicing — ids are on
   the traced-call hot path, so this beats drawing one random int per
   digit by an order of magnitude. *)
let hex_of_bits bits digits =
  let out = Bytes.create digits in
  let n = ref bits in
  for i = 0 to digits - 1 do
    Bytes.unsafe_set out i
      "0123456789abcdef".[Int64.to_int (Int64.logand !n 0xFL)];
    n := Int64.shift_right_logical !n 4
  done;
  Bytes.unsafe_to_string out

let hex_id digits =
  let id_lock, st = Locked.domain_local_get id_state in
  let bits =
    Locked.with_lock id_lock (fun () -> Random.State.int64 st Int64.max_int)
  in
  hex_of_bits bits digits

let new_trace_id () = hex_id 16
let new_span_id () = hex_id 8

(* Client spans need both ids; fuse the draws under one acquisition. *)
let new_trace_and_span_ids () =
  let id_lock, st = Locked.domain_local_get id_state in
  let b1, b2 =
    Locked.with_lock id_lock (fun () ->
        let b1 = Random.State.int64 st Int64.max_int in
        let b2 = Random.State.int64 st Int64.max_int in
        (b1, b2))
  in
  (hex_of_bits b1 16, hex_of_bits b2 8)

(* ---------------- wire context ---------------- *)

let encode_context span = span.trace_id ^ "-" ^ span.span_id

(* We emit 16 and 8 hex digits and accept up to 32 and 16, no more, so
   a peer cannot put a megabyte id into every span it causes. *)
let max_context_bytes = 32 + 1 + 16

(* Lowercase only: it is what {!hex_id} emits, and rejecting anything
   else keeps junk that merely resembles a context out. *)
let is_hex ~max s =
  s <> ""
  && String.length s <= max
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* Tolerant by design: a malformed context from a peer must never fail
   the call — the server just starts a fresh root span. *)
let decode_context s =
  match String.index_opt s '-' with
  | None -> None
  | Some i ->
      let trace_id = String.sub s 0 i in
      let span_id = String.sub s (i + 1) (String.length s - i - 1) in
      if is_hex ~max:32 trace_id && is_hex ~max:16 span_id then
        Some (trace_id, span_id)
      else None

(* ---------------- span lifecycle ---------------- *)

let make ~kind ~trace_id ?span_id ~parent_id ~operation ~endpoint () =
  {
    trace_id;
    span_id = (match span_id with Some id -> id | None -> new_span_id ());
    parent_id;
    kind;
    operation;
    endpoint;
    started_at = now ();
    req_id = 0;
    finished_at = nan;
    marshal_s = nan;
    send_s = nan;
    wait_s = nan;
    unmarshal_s = nan;
    retries = 0;
    breaker = None;
    outcome = None;
    notes = [];
  }

let start_client ~operation ~endpoint () =
  let trace_id, span_id = new_trace_and_span_ids () in
  make ~kind:Client ~trace_id ~span_id ~parent_id:None ~operation ~endpoint ()

let start_server ?context ~operation ~endpoint () =
  match context with
  | Some (trace_id, parent_span) ->
      make ~kind:Server ~trace_id ~parent_id:(Some parent_span) ~operation
        ~endpoint ()
  | None ->
      make ~kind:Server ~trace_id:(new_trace_id ()) ~parent_id:None ~operation
        ~endpoint ()

let finish span outcome =
  span.outcome <- Some outcome;
  span.finished_at <- now ()

let finished span = not (Float.is_nan span.finished_at)

let duration span =
  if finished span then span.finished_at -. span.started_at else nan

let note span key value = span.notes <- (key, value) :: span.notes

let kind_to_string = function Client -> "client" | Server -> "server"

let outcome_to_string = function
  | Ok -> "ok"
  | User_exception id -> "user_exception:" ^ id
  | System_error m -> "system_error:" ^ m
  | Failed m -> "failed:" ^ m

let to_json span =
  Jout.obj
    ([
       ("trace_id", Jout.str span.trace_id);
       ("span_id", Jout.str span.span_id);
       ( "parent_id",
         match span.parent_id with Some p -> Jout.str p | None -> Jout.null );
       ("kind", Jout.str (kind_to_string span.kind));
       ("operation", Jout.str span.operation);
       ("endpoint", Jout.str span.endpoint);
       ("req_id", Jout.int span.req_id);
       ("started_at", Jout.num span.started_at);
       ("duration_s", Jout.num (duration span));
       ("marshal_s", Jout.num span.marshal_s);
       ("send_s", Jout.num span.send_s);
       ("wait_s", Jout.num span.wait_s);
       ("unmarshal_s", Jout.num span.unmarshal_s);
       ("retries", Jout.int span.retries);
       ( "breaker",
         match span.breaker with Some b -> Jout.str b | None -> Jout.null );
       ( "outcome",
         match span.outcome with
         | Some o -> Jout.str (outcome_to_string o)
         | None -> Jout.null );
     ]
    @
    match span.notes with
    | [] -> []
    | notes ->
        [
          ( "notes",
            Jout.obj (List.rev_map (fun (k, v) -> (k, Jout.str v)) notes) );
        ])
