(* The state machines — [Orb.Mux] (the client demux, codec gate and
   connection cache), [Orb.Admit] (server admission),
   [Orb.Breaker.Circuit] (one endpoint's circuit breaker),
   [Orb.Pool.Core] (the worker pool) and [Orb.Transport.Use] (one tcp
   fd's deferred close) — run through every interleaving
   of small event sets, and the client's one retry decision
   ([Orb.Retry.decide]) over every combination of its inputs. No
   threads and no clock: each event is one lock section of the shell
   around the module, and a depth-first search tries every enabled
   event at every state. A state is rebuilt by replaying its schedule
   into a fresh world, so the modules need no copy function. Each scenario prints
   how many complete interleavings it explored; a broken rule fails
   with the first schedule found that breaks it. *)

module Mux = Orb.Mux
module Admit = Orb.Admit
module P = Orb.Protocol

exception Violation of string

let violation fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

exception Counterexample of string * string list

(* Every schedule of [enabled] events from [fresh ()]: [apply] runs one
   event and checks the invariants after it, [final] checks a state with
   nothing left to run. Returns the number of complete schedules. *)
let explore ~fresh ~enabled ~apply ~final ~show =
  let leaves = ref 0 in
  let guard trace f =
    try f () with Violation m -> raise (Counterexample (m, List.rev_map show trace))
  in
  let replay trace =
    let w = fresh () in
    List.iter (apply w) (List.rev trace);
    w
  in
  let rec go w trace =
    match enabled w with
    | [] ->
        guard trace (fun () -> final w);
        incr leaves
    | first :: rest ->
        List.iter (fun e -> step (replay trace) (e :: trace)) rest;
        step w (first :: trace)
  and step w trace =
    guard trace (fun () -> apply w (List.hd trace));
    go w trace
  in
  go (fresh ()) [];
  !leaves

let target = Orb.Objref.make ~proto:"mem" ~host:"local" ~port:1 ~oid:"o" ~type_id:"IDL:T:1.0"

(* ---------------- Mux: one client connection ---------------- *)

(* What the peer answers to the connection's offer. *)
type answer = Chosen | Fallback | Unknown

type spec = {
  kind : Mux.kind;
  timed : bool;  (* has a deadline: may expire *)
  send_fails : bool;
  marshal_fails : bool;  (* the payload raises before anything is sent *)
}

type scenario = {
  name : string;
  limit : int;
  negotiate : bool;
  answer : answer;
  callers : spec list;
  orphan : bool;  (* the peer sends a reply nobody waits for *)
  wrong : bool;  (* the peer answers a request with the other kind *)
  kill : bool;  (* the connection is dropped from outside *)
}

type pc = Admitting | Sending | Awaiting | Settling | Done

type caller = {
  spec : spec;
  cell : Mux.cell;
  mutable pc : pc;
  mutable runnable : bool;  (* not parked, or woken by a broadcast *)
  mutable parked_on : bool * Mux.gate * int * int * bool * bool;
      (* [seen] when it parked *)
  mutable expired : bool;
  mutable offer : bool;  (* admitted holding the offer *)
  mutable offered : bool;  (* sent the offer frame *)
  mutable pre_offer : bool;  (* a oneway admitted before any offer went out *)
  mutable outcome : string option;
  mutable sent : int;  (* two-way frames on the wire *)
  mutable answered : int;  (* replies the peer has sent back *)
}

type world = {
  sc : scenario;
  mx : Mux.t;
  cs : caller array;
  mutable offer_out : bool;  (* offer frame sent, not yet settled *)
  mutable offers_sent : int;
  mutable seen_dead : exn option;
  mutable orphaned : bool;
  mutable wronged : bool;
  mutable killed : bool;
}

type event = Step of int | Reply of int | Wrong of int | Orphan | Expire of int | Kill

let show = function
  | Step i -> Printf.sprintf "step %d" i
  | Reply i -> Printf.sprintf "reply %d" i
  | Wrong i -> Printf.sprintf "wrong-kind reply %d" i
  | Orphan -> "orphan reply"
  | Expire i -> Printf.sprintf "expire %d" i
  | Kill -> "kill"

let codecs = [ P.hcx ]

let request i spec =
  match spec.kind with
  | Mux.Locate -> P.Locate_request { req_id = 100 + i; target }
  | Mux.Call | Mux.Oneway ->
      P.Request
        { P.req_id = 100 + i; target; operation = "op"; oneway = spec.kind = Mux.Oneway;
          payload = ""; trace_ctx = ""; budget_us = None; nego_offer = "" }

let fresh sc () =
  let cs =
    Array.of_list
      (List.mapi
         (fun i spec ->
           { spec; cell = Mux.cell (request i spec); pc = Admitting; runnable = true;
             parked_on = (false, Mux.Settled, 0, 0, false, false);
             expired = false; offer = false; offered = false; pre_offer = false;
             outcome = None; sent = 0; answered = 0 })
         sc.callers)
  in
  { sc; mx = Mux.create ~limit:sc.limit ~negotiate:sc.negotiate; cs; offer_out = false;
    offers_sent = 0; seen_dead = None; orphaned = false; wronged = false; killed = false }

(* What a parked caller's next decision can depend on. *)
let seen w c =
  let mx = w.mx in
  (mx.Mux.dead <> None, mx.Mux.gate, mx.Mux.inflight, mx.Mux.unsent,
   c.cell.Mux.reply <> None, c.expired)

(* A broadcast on the demux lock: every parked caller re-decides. One
   whose inputs have not changed since it parked would decide to hold
   again, a step with no effect, so it stays parked: that keeps the
   spurious wakeups out of the count without losing a schedule. *)
let wake w =
  Array.iter
    (fun c -> if c.pc <> Done && seen w c <> c.parked_on then c.runnable <- true)
    w.cs

let park w c =
  c.runnable <- false;
  c.parked_on <- seen w c

let finish i c outcome =
  (match c.outcome with
  | Some o -> violation "caller %d got a second outcome (%s after %s)" i outcome o
  | None -> c.outcome <- Some outcome);
  c.pc <- Done

let unregister w c ~reoffer = if Mux.unregister w.mx c.cell ~reoffer then wake w

let kill w err =
  ignore (Mux.kill w.mx err);
  wake w

let reply_for w c =
  let id = c.cell.Mux.id in
  match c.spec.kind with
  | Mux.Locate -> P.Locate_reply { rep_id = id; found = true; forward = None }
  | Mux.Call | Mux.Oneway ->
      let ok = { P.rep_id = id; status = P.Status_ok; payload = ""; nego_answer = "" } in
      if not (c.offered && c.answered = 0) then P.Reply ok
      else
        match w.sc.answer with
        | Chosen -> P.Reply { ok with P.nego_answer = P.Nego.token P.hcx }
        | Fallback -> P.Reply ok
        | Unknown -> P.Reply { ok with P.nego_answer = "zz/9" }

let wrong_for c =
  let id = c.cell.Mux.id in
  match c.spec.kind with
  | Mux.Locate ->
      P.Reply { P.rep_id = id; status = P.Status_ok; payload = ""; nego_answer = "" }
  | Mux.Call | Mux.Oneway -> P.Locate_reply { rep_id = id; found = true; forward = None }

(* The reader: deliver, or kill on anything [Mux.deliver] refuses. *)
let deliver w msg =
  match Mux.deliver w.mx msg with
  | Mux.Delivered -> wake w
  | Mux.Orphan _ | Mux.Wrong_kind _ | Mux.Not_a_reply -> kill w (Failure "poisoned")

let step w i =
  let c = w.cs.(i) in
  match c.pc with
  | Admitting -> (
      match Mux.admit w.mx c.cell ~expired:c.expired with
      | (Mux.Admitted | Mux.Admitted_offer) as v ->
          if c.expired then violation "caller %d admitted after its own expiry" i;
          c.offer <- v = Mux.Admitted_offer;
          c.pre_offer <- w.offers_sent = 0;
          c.pc <- Sending
      | Mux.Dead _ -> finish i c "dead"
      | _ when c.expired -> finish i c "timed out waiting for admission"
      | _ -> park w c)
  | Sending ->
      if c.spec.marshal_fails then begin
        unregister w c ~reoffer:c.offer;
        finish i c "marshal failed"
      end
      else if c.spec.send_fails || w.mx.Mux.dead <> None (* channel closed *) then begin
        unregister w c ~reoffer:false;
        kill w (Failure "send failed");
        finish i c "send failed"
      end
      else begin
        if c.spec.kind = Mux.Oneway && c.pre_offer && w.offers_sent > 0 then
          violation "oneway %d, admitted before the offer, went out after it" i;
        if w.offer_out then
          violation "caller %d sent a frame while the offer was outstanding" i;
        if c.offer then begin
          w.offers_sent <- w.offers_sent + 1;
          w.offer_out <- true;
          c.offered <- true
        end;
        if c.spec.kind = Mux.Oneway then begin
          unregister w c ~reoffer:false;
          finish i c "sent"
        end
        else begin
          c.sent <- c.sent + 1;
          wake w (* the reader *);
          c.pc <- Awaiting
        end
      end
  | Awaiting -> (
      match Mux.await w.mx c.cell with
      | Mux.Replied ->
          (match (c.spec.kind, c.cell.Mux.reply) with
          | Mux.Call, Some (P.Reply { P.rep_id; _ })
          | Mux.Locate, Some (P.Locate_reply { rep_id; _ })
            when rep_id = c.cell.Mux.id -> ()
          | _ -> violation "caller %d was handed a reply to another request" i);
          if c.offer then c.pc <- Settling else finish i c "replied"
      | Mux.Dead _ ->
          unregister w c ~reoffer:false;
          finish i c "dead"
      | _ when c.expired ->
          unregister w c ~reoffer:false;
          kill w (Failure "deadline expired mid-stream");
          finish i c "timed out awaiting the reply"
      | _ -> park w c)
  | Settling -> (
      let settle () =
        Mux.settle w.mx;
        w.offer_out <- false;
        wake w
      in
      match Orb.Nego.answer ~codecs ~compat:P.Nego.exact (Option.get c.cell.Mux.reply) with
      | Orb.Nego.Chosen _ | Orb.Nego.Fallback ->
          settle ();
          finish i c "replied"
      | Orb.Nego.Unknown _ ->
          kill w (Failure "unknown codec");
          finish i c "unknown codec")
  | Done -> assert false

let check w =
  let mx = w.mx in
  if mx.Mux.inflight <> Hashtbl.length mx.Mux.pending then
    violation "inflight %d <> %d pending" mx.Mux.inflight (Hashtbl.length mx.Mux.pending);
  if mx.Mux.inflight > mx.Mux.limit then
    violation "inflight %d over the limit %d" mx.Mux.inflight mx.Mux.limit;
  if mx.Mux.unsent < 0 then violation "unsent %d" mx.Mux.unsent;
  (match (w.seen_dead, mx.Mux.dead) with
  | Some e, Some e' when e == e' -> ()
  | Some _, _ -> violation "a dead connection came back to life"
  | None, d -> w.seen_dead <- d);
  (* A dead connection sends nothing more: the offer is no longer out. *)
  if mx.Mux.dead <> None then w.offer_out <- false

let apply w e =
  (match e with
  | Step i -> step w i
  | Reply i ->
      let c = w.cs.(i) in
      let msg = reply_for w c in
      c.answered <- c.answered + 1;
      deliver w msg
  | Wrong i ->
      let c = w.cs.(i) in
      c.answered <- c.answered + 1;
      w.wronged <- true;
      deliver w (wrong_for c)
  | Orphan ->
      w.orphaned <- true;
      deliver w
        (P.Reply { P.rep_id = 999; status = P.Status_ok; payload = ""; nego_answer = "" })
  | Expire i ->
      (* The deadline service broadcasts the waiter's lock. *)
      w.cs.(i).expired <- true;
      wake w
  | Kill ->
      w.killed <- true;
      kill w (Failure "dropped"));
  check w

let enabled w =
  let reading = Mux.reader w.mx = Mux.Read in
  let acc = ref [] in
  let add e = acc := e :: !acc in
  if w.sc.kill && not w.killed then add Kill;
  if w.sc.orphan && reading && not w.orphaned then add Orphan;
  Array.iteri
    (fun i c ->
      if c.pc <> Done && c.runnable then add (Step i);
      if c.spec.timed && c.pc <> Done && not c.expired then add (Expire i);
      if reading && c.spec.kind <> Mux.Oneway && c.sent > c.answered then begin
        add (Reply i);
        if w.sc.wrong && not w.wronged then add (Wrong i)
      end)
    w.cs;
  !acc

let final w =
  Array.iteri
    (fun i c -> if c.outcome = None then violation "caller %d never got an outcome" i)
    w.cs;
  if w.mx.Mux.dead = None then begin
    if w.mx.Mux.inflight <> 0 || w.mx.Mux.unsent <> 0 then
      violation "a live connection ended with %d in flight, %d unsent" w.mx.Mux.inflight
        w.mx.Mux.unsent;
    if w.mx.Mux.gate = Mux.Offering then violation "the offer never settled"
  end

let call ?(timed = true) ?(send_fails = false) ?(marshal_fails = false) kind =
  { kind; timed; send_fails; marshal_fails }

let base =
  { name = ""; limit = 1; negotiate = false; answer = Chosen; callers = [];
    orphan = false; wrong = false; kill = false }

let mux_scenarios =
  let untimed = call ~timed:false in
  [
    { base with name = "one slot, two timed calls";
      callers = [ call Mux.Call; call Mux.Call ] };
    { base with name = "one slot, call, locate, oneway, kill";
      callers = [ untimed Mux.Call; untimed Mux.Locate; untimed Mux.Oneway ]; kill = true };
    { base with name = "two slots, orphan and wrong-kind replies"; limit = 2;
      callers = [ untimed Mux.Call; untimed Mux.Locate ]; orphan = true; wrong = true };
    { base with name = "two slots, a failed send"; limit = 2;
      callers = [ call Mux.Call; untimed ~send_fails:true Mux.Call; untimed Mux.Oneway ] };
    { base with name = "offer chosen, oneway and locate held"; limit = 2; negotiate = true;
      callers = [ untimed Mux.Call; untimed Mux.Oneway; call Mux.Locate ] };
    { base with name = "offer fallback, oneway first"; limit = 2; negotiate = true;
      answer = Fallback; callers = [ untimed Mux.Oneway; call Mux.Call; untimed Mux.Call ] };
    { base with name = "offer answered an unknown codec"; negotiate = true; answer = Unknown;
      callers = [ call Mux.Call; untimed Mux.Call; untimed Mux.Oneway ] };
    { base with name = "offer taker fails to marshal"; limit = 2; negotiate = true;
      callers = [ untimed ~marshal_fails:true Mux.Call; call Mux.Call; untimed Mux.Oneway ];
      kill = true };
  ]

(* ---------------- Mux: the connection cache ---------------- *)

type conn = { cid : int; mutable closed : bool }

type dpc = Lookup | Install of conn | Dialled

type cworld = {
  cache : (string, conn) Mux.cache;
  dialers : dpc array;
  got : conn option array;
  mutable made : conn list;
  mutable shut : bool;
  mutable dropped : bool;
}

type cevent = Dial_step of int | Shutdown | Drop of int

let show_c = function
  | Dial_step i -> Printf.sprintf "dialer %d" i
  | Shutdown -> "shutdown"
  | Drop i -> Printf.sprintf "drop %d" i

let cache_fresh n () =
  { cache = Mux.cache (); dialers = Array.make n Lookup; got = Array.make n None;
    made = []; shut = false; dropped = false }

let close c = c.closed <- true

let cache_apply w = function
  | Dial_step i -> (
      match w.dialers.(i) with
      | Lookup -> (
          match Mux.lookup w.cache "ep" with
          | Mux.Cached c ->
              w.got.(i) <- Some c;
              w.dialers.(i) <- Dialled
          | Mux.Dial ->
              if w.shut then violation "dialler %d dialled after shutdown" i;
              let c = { cid = List.length w.made; closed = false } in
              w.made <- c :: w.made;
              w.dialers.(i) <- Install c
          | Mux.Shut -> w.dialers.(i) <- Dialled
          | Mux.Won -> violation "lookup answered Won")
      | Install c -> (
          (match Mux.install w.cache "ep" c with
          | Mux.Won ->
              if w.shut then violation "dialler %d cached a connection after shutdown" i;
              w.got.(i) <- Some c
          | Mux.Cached winner ->
              close c;
              w.got.(i) <- Some winner
          | Mux.Shut -> close c
          | Mux.Dial -> violation "install answered Dial");
          w.dialers.(i) <- Dialled)
      | Dialled -> assert false)
  | Shutdown ->
      w.shut <- true;
      List.iter close (Mux.close w.cache)
  | Drop i -> (
      w.dropped <- true;
      match w.got.(i) with
      | Some c ->
          Mux.remove w.cache "ep" c;
          close c
      | None -> ())

let cache_enabled w =
  let acc = ref (if w.shut then [] else [ Shutdown ]) in
  Array.iteri
    (fun i d ->
      if d <> Dialled then acc := Dial_step i :: !acc;
      if (not w.dropped) && w.got.(i) <> None then acc := Drop i :: !acc)
    w.dialers;
  !acc

let cache_final w =
  let live = Hashtbl.fold (fun _ c acc -> c :: acc) w.cache.Mux.conns [] in
  if w.shut && live <> [] then violation "a connection is cached after shutdown";
  List.iter
    (fun c ->
      if (not c.closed) && not (List.memq c live) then
        violation "connection %d is neither cached nor closed" c.cid)
    w.made

(* ---------------- Admit: one server's connections ---------------- *)

type rspec = { oneway : bool; budget : bool; on : int (* its connection *) }

type ascenario = {
  aname : string;
  cap : int;
  pooled : bool;
  workers : int;
  reqs : rspec list;
  drain : bool;
  cancel : bool;
}

type rstate = Unread | Decoded | Queued | Running | Answered

type req = {
  rs : rspec;
  mutable st : rstate;
  mutable phase : int;  (* 0 fresh, 1 nearly spent (doomed), 2 lapsed *)
  mutable replies : int;
  mutable outcomes : int;
}

(* Shutdown's drain: not begun, parked since this many broadcasts of
   the ORB lock, or returned. *)
type drainer = Not_draining | Settling of int | Settled

type aworld = {
  asc : ascenario;
  adm : Admit.t;
  conns : Admit.conn array;
  rq : req array;
  mutable queue : int list;  (* FIFO, head first *)
  mutable running : int;  (* requests on pool workers *)
  mutable drained : bool;
  mutable epoch : int;  (* uncounts: each broadcasts the ORB lock *)
  mutable dnow : float;  (* the drain's clock; its deadline is 1 s *)
  mutable drainer : drainer;
}

type aevent =
  | Decode of int
  | Submit of int * [ `Accepted | `Rejected | `Expired ]
  | Pickup
  | Finish of int
  | Tick of int
  | Cancel
  | Drain
  | Lapse
  | Settle

let show_a = function
  | Decode c -> Printf.sprintf "decode on %d" c
  | Submit (c, `Accepted) -> Printf.sprintf "submit on %d accepted" c
  | Submit (c, `Rejected) -> Printf.sprintf "submit on %d rejected" c
  | Submit (c, `Expired) -> Printf.sprintf "submit on %d expired" c
  | Pickup -> "pickup"
  | Finish i -> Printf.sprintf "finish %d" i
  | Tick i -> Printf.sprintf "tick %d" i
  | Cancel -> "cancel"
  | Drain -> "drain"
  | Lapse -> "the drain deadline passes"
  | Settle -> "the drain re-decides"

(* Budgets expire at t = 10 s; a request's clock reads one of three
   instants, and the learned service time is 100 µs. *)
let expiry r = if r.rs.budget then Some 10. else None
let now r = [| 0.; 10. -. 1e-5; 10. |].(r.phase)
let service_us = 100
let drain_deadline = 1.

let admit_fresh asc () =
  let n = 1 + List.fold_left (fun m r -> max m r.on) 0 asc.reqs in
  { asc; adm = Admit.create ~cap:asc.cap; conns = Array.init n (fun _ -> Admit.conn ());
    rq =
      Array.of_list
        (List.map (fun rs -> { rs; st = Unread; phase = 0; replies = 0; outcomes = 0 }) asc.reqs);
    queue = []; running = 0; drained = false; epoch = 0; dnow = 0.; drainer = Not_draining }

(* An answer: a reply for a two-way request, nothing on the wire for a
   oneway; either way the request's one outcome. *)
let answer r =
  if not r.rs.oneway then r.replies <- r.replies + 1;
  r.outcomes <- r.outcomes + 1;
  r.st <- Answered

let find_req w p =
  let rec go i = if i = Array.length w.rq then None else if p w.rq.(i) then Some i else go (i + 1) in
  go 0

let on c st r = r.rs.on = c && r.st = st
let conn_of w i = w.conns.(w.rq.(i).rs.on)

(* Each connection's reader decodes its requests in order, and is busy
   while it submits one, or runs one inline without a pool. *)
let reader_busy w c =
  find_req w (on c Decoded) <> None || ((not w.asc.pooled) && find_req w (on c Running) <> None)

(* Admitted and not yet answered, on connection [c] or anywhere. *)
let unanswered ?c w =
  Array.fold_left
    (fun n r ->
      match r.st with
      | (Decoded | Queued | Running) when c = None || c = Some r.rs.on -> n + 1
      | _ -> n)
    0 w.rq

(* The shell's uncount: every decrement broadcasts the ORB lock. *)
let uncount w f =
  f w.adm;
  w.epoch <- w.epoch + 1

let settle w =
  let n = unanswered w in
  match Admit.settled w.adm ~deadline:drain_deadline ~now:w.dnow with
  | Admit.Drained ->
      if n <> 0 then violation "drained with %d unanswered" n;
      w.drainer <- Settled
  | Admit.Aborted k ->
      if w.dnow < drain_deadline then violation "aborted before the drain deadline";
      if k <> n then violation "aborted %d of %d unanswered" k n;
      w.drainer <- Settled
  | Admit.Pending ->
      if n = 0 || w.dnow >= drain_deadline then
        violation "pending with %d unanswered at %g s" n w.dnow;
      w.drainer <- Settling w.epoch

let admit_apply w e =
  (match e with
  | Decode c -> (
      let i = Option.get (find_req w (on c Unread)) in
      let r = w.rq.(i) in
      match Admit.arrive w.adm w.conns.(c) ~expiry:(expiry r) ~now:(now r) with
      | Admit.Run ->
          if w.drained then violation "request %d admitted while draining" i;
          if r.phase = 2 then violation "request %d admitted after its expiry" i;
          r.st <- (if w.asc.pooled then Decoded else Running)
      | Admit.Refuse _ -> answer r)
  | Submit (c, o) -> (
      let i = Option.get (find_req w (on c Decoded)) in
      let r = w.rq.(i) in
      match o with
      | `Accepted ->
          r.st <- Queued;
          w.queue <- w.queue @ [ i ]
      | (`Rejected | `Expired) as o ->
          let o = match o with `Rejected -> `Rejected "overloaded" | `Expired -> `Expired in
          uncount w (fun a -> ignore (Admit.submitted a w.conns.(c) o));
          answer r)
  | Pickup -> (
      let i = List.hd w.queue in
      let r = w.rq.(i) in
      w.queue <- List.tl w.queue;
      match Admit.pickup ~expiry:(expiry r) ~now:(now r) ~service_us with
      | Admit.Run ->
          if r.phase = 2 then violation "request %d ran after its expiry" i;
          r.st <- Running;
          w.running <- w.running + 1
      | Admit.Refuse _ ->
          answer r;
          uncount w (fun a -> Admit.finish a (conn_of w i)))
  | Finish i ->
      answer w.rq.(i);
      if w.asc.pooled then w.running <- w.running - 1;
      uncount w (fun a -> Admit.finish a (conn_of w i))
  | Tick i -> w.rq.(i).phase <- w.rq.(i).phase + 1
  | Cancel ->
      let i = List.hd w.queue in
      w.queue <- List.tl w.queue;
      uncount w (fun a -> ignore (Admit.cancel a (conn_of w i)));
      answer w.rq.(i)
  | Drain ->
      w.drained <- true;
      w.adm.Admit.draining <- true;
      settle w
  | Lapse -> w.dnow <- drain_deadline
  | Settle -> settle w);
  let counted = unanswered w in
  if w.adm.Admit.unanswered <> counted then
    violation "unanswered %d but %d requests admitted and unanswered" w.adm.Admit.unanswered
      counted;
  Array.iteri
    (fun c conn ->
      let counted = unanswered ~c w in
      if conn.Admit.inflight <> counted then
        violation "connection %d: inflight %d but %d admitted and unanswered" c
          conn.Admit.inflight counted;
      if w.asc.cap > 0 && counted > w.asc.cap then
        violation "connection %d: %d in flight over the cap" c counted)
    w.conns;
  Array.iteri
    (fun i r ->
      if r.replies > 1 || r.outcomes > 1 then violation "request %d answered twice" i)
    w.rq

let admit_enabled w =
  let acc = ref [] in
  let add e = acc := e :: !acc in
  Array.iteri
    (fun c _ ->
      match find_req w (on c Decoded) with
      | Some i ->
          add (Submit (c, `Accepted));
          add (Submit (c, `Rejected));
          if w.rq.(i).phase = 2 then add (Submit (c, `Expired))
      | None -> if (not (reader_busy w c)) && find_req w (on c Unread) <> None then add (Decode c))
    w.conns;
  if w.queue <> [] then begin
    if w.running < w.asc.workers then add Pickup;
    if w.asc.cancel then add Cancel
  end;
  (match w.drainer with
  | Not_draining -> if w.asc.drain then add Drain
  | Settling e ->
      if w.dnow < drain_deadline then add Lapse;
      if e < w.epoch || w.dnow >= drain_deadline then add Settle
  | Settled -> ());
  Array.iteri
    (fun i r ->
      if r.st = Running then add (Finish i);
      if r.rs.budget && r.st <> Answered && r.phase < 2 then add (Tick i))
    w.rq;
  !acc

let admit_final w =
  Array.iteri
    (fun i r ->
      if r.outcomes <> 1 then violation "request %d ended with %d outcomes" i r.outcomes;
      if r.replies <> (if r.rs.oneway then 0 else 1) then
        violation "request %d sent %d replies" i r.replies)
    w.rq;
  (match w.drainer with Settling _ -> violation "the drain never returned" | _ -> ());
  if w.adm.Admit.unanswered <> 0 then violation "ended with %d unanswered" w.adm.Admit.unanswered

let two_way ?(budget = false) ?(on = 0) () = { oneway = false; budget; on }

let admit_scenarios =
  let a = { aname = ""; cap = 0; pooled = true; workers = 2; reqs = []; drain = true;
            cancel = true } in
  [
    { a with aname = "pool, a budget, a oneway, drain and cancel";
      reqs = [ two_way ~budget:true (); { oneway = true; budget = false; on = 0 }; two_way () ] };
    { a with aname = "pool, two connections, drain"; workers = 1; cancel = false;
      reqs = [ two_way (); two_way ~on:1 (); two_way ~on:1 () ] };
    { a with aname = "pool, cap 2, one worker, budgets"; cap = 2; workers = 1; drain = false;
      cancel = false; reqs = [ two_way ~budget:true (); two_way (); two_way ~budget:true () ] };
    { a with aname = "thread per connection, cap 1"; cap = 1; pooled = false; cancel = false;
      reqs = [ two_way ~budget:true (); two_way ~budget:true ();
               { oneway = true; budget = true; on = 0 } ] };
    { a with aname = "thread per connection, two connections, drain"; pooled = false;
      cancel = false; reqs = [ two_way ~budget:true (); two_way (); two_way ~on:1 () ] };
  ]

(* ---------------- Breaker: one endpoint's circuit ---------------- *)

module B = Orb.Breaker
module C = Orb.Breaker.Circuit

(* A call the gate let through: its ticket, whether it is the probe,
   and whether the circuit has changed state since it was let through
   (a late call). *)
type bcall = Ready | Flight of B.ticket * bool * bool

type bscenario = {
  bname : string;
  threshold : int;
  callers : int;
  calls : int;  (* gates per caller *)
  ticks : int;  (* half cool-downs the clock may advance *)
}

type bcaller = { mutable left : int; mutable at : bcall }

type bworld = {
  bsc : bscenario;
  bcfg : B.config;
  c : C.t;
  bc : bcaller array;
  mutable clock : float;
  mutable ticks_left : int;
  mutable tripped : int;  (* [failure] verdicts that tripped *)
  mutable opened : int;  (* transitions into Open *)
  mutable last_gate : B.decision option;
}

type bevent = Gate of int | Succeed of int | Fail of int | Tick

let show_b = function
  | Gate i -> Printf.sprintf "caller %d gates" i
  | Succeed i -> Printf.sprintf "caller %d succeeds" i
  | Fail i -> Printf.sprintf "caller %d fails" i
  | Tick -> "half a cool-down passes"

let cool = 1.0
let show_st = B.state_to_string

let show_decision = function
  | B.Proceed _ -> "Proceed"
  | B.Probe _ -> "Probe"
  | B.Fast_fail -> "Fast_fail"

let b_fresh bsc () =
  { bsc; bcfg = { B.failure_threshold = bsc.threshold; reset_timeout = cool };
    c = C.create ();
    bc = Array.init bsc.callers (fun _ -> { left = bsc.calls; at = Ready });
    clock = 0.; ticks_left = bsc.ticks; tripped = 0; opened = 0; last_gate = None }

let circuit c = (c.C.st, c.C.failures, c.C.opened_at, c.C.gen)

(* Each event checks its verdict against the rules written out on their
   own: the gate proceeds exactly when closed and probes exactly when
   open past the cool-down, [available] agrees with it at the same
   [now] (d); a late report moves nothing (a, c); a current one closes,
   counts or trips as the rules say. *)
let b_apply w e =
  let st0, failures0, opened_at0, _ = circuit w.c in
  let before = circuit w.c in
  let admitted = ref (-1) in
  (match e with
  | Gate i ->
      let caller = w.bc.(i) in
      let avail = C.available w.bcfg w.c ~now:w.clock in
      let v = C.gate w.bcfg w.c ~now:w.clock in
      w.last_gate <- Some v;
      caller.left <- caller.left - 1;
      if avail <> (v <> B.Fast_fail) then
        violation "available said %b, the gate at the same now %s" avail (show_decision v);
      let cooled = w.clock -. opened_at0 >= cool in
      (match (v, st0) with
      | B.Proceed tk, B.Closed ->
          admitted := i;
          caller.at <- Flight (tk, false, false)
      | B.Probe tk, B.Open when cooled ->
          admitted := i;
          caller.at <- Flight (tk, true, false)
      | B.Fast_fail, B.Open when not cooled -> ()
      | B.Fast_fail, B.Half_open -> ()
      | _ -> violation "the gate said %s in %s" (show_decision v) (show_st st0))
  | Succeed i | Fail i -> (
      let caller = w.bc.(i) in
      let tk, probe, late =
        match caller.at with
        | Flight (tk, probe, late) -> (tk, probe, late)
        | Ready -> violation "caller %d reports no call" i
      in
      caller.at <- Ready;
      let tripped =
        match e with
        | Succeed _ ->
            C.success w.c tk;
            false
        | _ -> C.failure w.bcfg w.c tk ~now:w.clock
      in
      if tripped then w.tripped <- w.tripped + 1;
      let st, failures, opened_at, _ = circuit w.c in
      if late then begin
        if circuit w.c <> before then
          violation "a late %s moved the circuit (%s -> %s)"
            (match e with Succeed _ -> "success" | _ -> "failure")
            (show_st st0) (show_st st)
      end
      else
        match e with
        | Succeed _ ->
            if st <> B.Closed || failures <> 0 then
              violation "a current success left it %s with %d failures" (show_st st) failures;
            if (not probe) && st0 <> B.Closed then violation "a closed call reported in %s" (show_st st0)
        | _ ->
            let trip = probe || failures0 + 1 >= w.bsc.threshold in
            if tripped <> trip then violation "failure verdict tripped=%b, rule says %b" tripped trip;
            if trip && (st <> B.Open || opened_at <> w.clock) then
              violation "a trip left it %s opened at %g" (show_st st) opened_at;
            if (not trip) && (st <> st0 || failures <> failures0 + 1) then
              violation "a counted failure left it %s with %d failures" (show_st st) failures)
  | Tick ->
      w.clock <- w.clock +. (cool /. 2.);
      w.ticks_left <- w.ticks_left - 1);
  let st, _, opened_at, _ = circuit w.c in
  if st <> st0 then begin
    if st = B.Open then w.opened <- w.opened + 1;
    (* Every call let through before the change is late from now on. *)
    Array.iteri
      (fun j cl ->
        match cl.at with
        | Flight (tk, p, _) when j <> !admitted -> cl.at <- Flight (tk, p, true)
        | _ -> ())
      w.bc
  end;
  if opened_at <> opened_at0 && st <> B.Open then
    violation "opened_at moved without a trip (c)";
  let probes =
    Array.fold_left
      (fun n cl -> match cl.at with Flight (_, true, _) -> n + 1 | _ -> n)
      0 w.bc
  in
  if probes > 1 then violation "%d probes in flight (b)" probes;
  if (st = B.Half_open) <> (probes = 1) then
    violation "%s with %d probes in flight" (show_st st) probes;
  if w.tripped <> w.opened then
    violation "%d trips reported for %d transitions into open" w.tripped w.opened

let b_enabled w =
  let acc = ref [] in
  if w.ticks_left > 0 then acc := [ Tick ];
  Array.iteri
    (fun i cl ->
      match cl.at with
      | Flight _ -> acc := Succeed i :: Fail i :: !acc
      | Ready -> if cl.left > 0 then acc := Gate i :: !acc)
    w.bc;
  !acc

let b_final w =
  if w.c.C.st = B.Half_open then violation "ended half-open"

let b_scenarios =
  [
    { bname = "threshold 2, two callers, two calls each"; threshold = 2; callers = 2;
      calls = 2; ticks = 2 };
    { bname = "threshold 2, three callers, one call each"; threshold = 2; callers = 3;
      calls = 1; ticks = 2 };
    { bname = "threshold 1, two callers, two calls each"; threshold = 1; callers = 2;
      calls = 2; ticks = 3 };
  ]

(* The rules of DESIGN.md §5: (a)-(c) as the schedules that broke them
   before tickets, (d) at the instant the cool-down ends. [expect] gives
   the last state or gate verdict, and what it must be. *)
let b_rows =
  let sc callers ticks = { bname = ""; threshold = 2; callers; calls = 1; ticks } in
  let trip = [ Gate 0; Gate 1; Gate 2; Fail 0; Fail 1 ] in
  [
    ( "(a) a late success leaves the circuit open", sc 3 0, trip @ [ Succeed 2 ],
      fun w -> (show_st w.c.C.st, "open") );
    ( "(b) a late failure during the probe grants no second probe", sc 5 4,
      trip @ [ Tick; Tick; Gate 3; Fail 2; Tick; Tick; Gate 4 ],
      fun w -> (Option.fold ~none:"" ~some:show_decision w.last_gate, "Fast_fail") );
    ( "(c) a late failure does not push the probe back", sc 4 2,
      trip @ [ Tick; Fail 2; Tick; Gate 3 ],
      fun w -> (Option.fold ~none:"" ~some:show_decision w.last_gate, "Probe") );
    ( "(d) available and the gate agree at the cool-down's end", sc 4 2,
      trip @ [ Tick; Gate 2; Tick; Gate 3 ],
      fun w -> (Option.fold ~none:"" ~some:show_decision w.last_gate, "Probe") );
  ]

(* ---------------- Pool.Core: the worker pool ---------------- *)

module PC = Orb.Pool.Core

type pscenario = {
  pname : string;
  capacity : int;
  block : bool;  (* Block admission with a 1 s deadline, else Reject *)
  pworkers : int;
  budgets : bool list;  (* one submit each; a budget lapses at t = 2 *)
  stop : bool;
  pticks : int;  (* seconds the clock may advance *)
}

type jstate =
  | Unsubmitted
  | Waiting of int  (* parked in a Block wait at this [change] epoch *)
  | Queued
  | Running
  | Ran
  | Refused of string
  | Expired
  | Cancelled

type wstate = Fresh | Parked | Busy of int | Gone

type pworld = {
  psc : pscenario;
  pcfg : Orb.Pool.config;
  core : PC.t;
  js : jstate array;
  admission_deadline : float option array;  (* fixed at a job's first submit *)
  ws : wstate array;
  mutable q : int list;  (* the mechanism's FIFO, head first *)
  mutable pclock : float;
  mutable pticks_left : int;
  mutable epoch : int;  (* broadcasts on the pool's [change] condition *)
  mutable stopped : bool;
}

type pevent = Submit of int | Pickup of int | Finish of int | Stop | Ptick

let show_p = function
  | Submit i -> Printf.sprintf "submit %d" i
  | Pickup k -> Printf.sprintf "worker %d picks up" k
  | Finish k -> Printf.sprintf "worker %d finishes" k
  | Stop -> "stop"
  | Ptick -> "a second passes"

let p_fresh psc () =
  let n = List.length psc.budgets in
  { psc;
    pcfg =
      { Orb.Pool.default_config with workers = psc.pworkers; queue_capacity = psc.capacity;
        admission = (if psc.block then Orb.Pool.Block (Some 1.) else Orb.Pool.Reject) };
    core = PC.create (); js = Array.make n Unsubmitted; admission_deadline = Array.make n None;
    ws = Array.make psc.pworkers Fresh; q = []; pclock = 0.; pticks_left = psc.pticks;
    epoch = 0; stopped = false }

let expire_of w i = if List.nth w.psc.budgets i then Some 2. else None
let lapsed at now = match at with Some x -> now >= x | None -> false
let busy w = Array.fold_left (fun n s -> match s with Busy _ -> n + 1 | _ -> n) 0 w.ws

(* A parked Block submitter re-decides after a broadcast on [change] or
   once its wait bound passes. *)
let bound w i =
  match (w.admission_deadline.(i), expire_of w i) with
  | Some d, Some x -> Some (Float.min d x)
  | (Some _ as d), None -> d
  | None, x -> x

let p_apply w e =
  let stopped0 = w.core.PC.stopped in
  let full = List.length w.q >= w.psc.capacity in
  (match e with
  | Submit i -> (
      if w.js.(i) = Unsubmitted && w.psc.block then
        w.admission_deadline.(i) <- Some (w.pclock +. 1.);
      let expire = expire_of w i and deadline = w.admission_deadline.(i) in
      match PC.submit w.pcfg w.core ~expire ~deadline ~now:w.pclock with
      | PC.Accept ->
          if stopped0 then violation "job %d accepted while stopped" i;
          if full then violation "job %d accepted into a full queue" i;
          if lapsed expire w.pclock then violation "job %d accepted after its expiry" i;
          w.js.(i) <- Queued;
          w.q <- w.q @ [ i ]
      | PC.Refuse r ->
          let ok =
            if r = Orb.Pool.refused_draining then stopped0
            else full && (not stopped0)
                 && ((not w.psc.block) || lapsed deadline w.pclock)
          in
          if not ok then violation "job %d refused (%s)" i r;
          w.js.(i) <- Refused r
      | PC.Expire ->
          if not (lapsed expire w.pclock) then violation "job %d expired early" i;
          w.js.(i) <- Expired
      | PC.Wait ->
          if not (w.psc.block && full && not stopped0) then
            violation "job %d told to wait" i;
          w.js.(i) <- Waiting w.epoch)
  | Pickup k -> (
      match PC.pickup w.core with
      | PC.Take -> (
          match w.q with
          | [] -> violation "worker %d took from an empty queue" k
          | j :: rest ->
              if w.js.(j) <> Queued then violation "job %d taken twice" j;
              w.q <- rest;
              w.js.(j) <- Running;
              w.ws.(k) <- Busy j;
              w.epoch <- w.epoch + 1)
      | PC.Idle ->
          if w.q <> [] || stopped0 then violation "worker %d idles with work or stopped" k;
          w.ws.(k) <- Parked
      | PC.Exit ->
          if w.q <> [] || not stopped0 then violation "worker %d exits early" k;
          w.ws.(k) <- Gone)
  | Finish k ->
      (match w.ws.(k) with Busy j -> w.js.(j) <- Ran | _ -> violation "worker %d idle" k);
      PC.finish w.core;
      w.ws.(k) <- Fresh
  | Stop ->
      let n = PC.stop w.core in
      if n <> List.length w.q then violation "stop dropped %d of %d queued" n (List.length w.q);
      List.iter (fun j -> w.js.(j) <- Cancelled) w.q;
      w.q <- [];
      w.stopped <- true;
      w.epoch <- w.epoch + 1
  | Ptick ->
      w.pclock <- w.pclock +. 1.;
      w.pticks_left <- w.pticks_left - 1);
  if w.core.PC.queued <> List.length w.q then
    violation "queued %d but %d in the queue" w.core.PC.queued (List.length w.q);
  if w.core.PC.active <> busy w then violation "active %d but %d workers busy" w.core.PC.active (busy w);
  if List.length w.q > w.psc.capacity then violation "queue over capacity"

let p_enabled w =
  let acc = ref [] in
  let add e = acc := e :: !acc in
  Array.iteri
    (fun i s ->
      match s with
      | Unsubmitted -> add (Submit i)
      | Waiting e when e < w.epoch || lapsed (bound w i) w.pclock -> add (Submit i)
      | _ -> ())
    w.js;
  Array.iteri
    (fun k s ->
      match s with
      | Fresh -> add (Pickup k)
      | Parked when w.q <> [] || w.stopped -> add (Pickup k)
      | Busy _ -> add (Finish k)
      | Parked | Gone -> ())
    w.ws;
  if w.psc.stop && not w.stopped then add Stop;
  if w.pticks_left > 0 then add Ptick;
  !acc

let p_final w =
  Array.iteri
    (fun i s ->
      match s with
      | Ran | Refused _ | Expired | Cancelled -> ()
      | Unsubmitted | Waiting _ | Queued | Running -> violation "job %d ended with no outcome" i)
    w.js;
  if w.stopped && Array.exists (fun s -> s <> Gone) w.ws then violation "a worker outlived stop";
  if w.core.PC.queued <> 0 || w.core.PC.active <> 0 then violation "ended with work counted"

let p_scenarios =
  let p = { pname = ""; capacity = 1; block = false; pworkers = 1; budgets = [];
            stop = false; pticks = 0 } in
  [
    { p with pname = "Reject, capacity 1, one worker, a budget, stop";
      budgets = [ true; false; false ]; stop = true; pticks = 2 };
    { p with pname = "Block, capacity 1, one worker, a budget";
      block = true; budgets = [ true; false; false ]; pticks = 1 };
    { p with pname = "Reject, capacity 2, two workers, stop";
      capacity = 2; pworkers = 2; budgets = [ false; false; false ]; stop = true };
    { p with pname = "Block, capacity 1, two workers, a budget, stop";
      block = true; pworkers = 2; budgets = [ true; false ]; stop = true; pticks = 2 };
  ]

(* ---------------- Transport.Use: one tcp fd's use word ---------------- *)

module U = Orb.Transport.Use

(* The word's shell in [Transport]: [enter] and [close] are
   compare-and-set steps, [leave] is one fetch-and-add whose old value
   says whether this thread closes the fd. Each event below is one of
   those atomic steps or one syscall, so the search covers every order
   the threads can take. Channel: a reader (its read returns only once
   the socket is shut down, like a read with nothing coming) or a writer
   enters, makes its syscall and leaves; a closer takes the bit and a
   use, shuts the socket down and leaves. Listener: an accepter enters,
   blocks in accept until a connection is queued, hands it back if
   closing has begun, and leaves; a shutdown takes the bit and a use,
   queues one wake-up connection per user its step counted, and leaves;
   a client may connect at any time the fd is open. *)
type ushape = Channel | Listener
type ukind = Reader | Writer | Accepter

type uscenario = { uname : string; shape : ushape; users : ukind list; closers : int; clients : int }

type upc = Enter | Inside | Check | Leave_u | Done_u
type cpc = Close | Wake | Leave_c | Done_c

type uworld = {
  usc : uscenario;
  kinds : ukind array;
  us : upc array;
  cs : cpc array;
  counted : int array;  (* users the closer's step found *)
  mutable word : int;
  mutable bit_by : int option;  (* the closer whose step set the bit *)
  mutable shut : bool;  (* shutdown(2) ran *)
  mutable closes : int;  (* close(2) ran *)
  mutable pending : [ `Wake | `Client ] list;  (* the listener's backlog, oldest first *)
  taken : [ `Wake | `Client ] option array;  (* what each accepter's accept returned *)
  mutable clients_left : int;
}

type uevent = User of int | Closer of int | Client

let show_u = function
  | User i -> Printf.sprintf "user %d" i
  | Closer k -> Printf.sprintf "closer %d" k
  | Client -> "client connects"

let u_fresh usc () =
  let n = List.length usc.users in
  { usc; kinds = Array.of_list usc.users; us = Array.make n Enter;
    cs = Array.make usc.closers Close; counted = Array.make usc.closers 0;
    word = U.idle; bit_by = None; shut = false; closes = 0; pending = [];
    taken = Array.make n None; clients_left = usc.clients }

(* Threads holding a use: users between enter and leave, closers
   between their step and their leave. *)
let holders w =
  let n = ref 0 in
  Array.iter (function Inside | Check | Leave_u -> incr n | _ -> ()) w.us;
  Array.iter (function Wake | Leave_c -> incr n | _ -> ()) w.cs;
  !n

let on_open w what = if w.closes > 0 then violation "%s on a closed fd" what

(* The fetch-and-add; the thread that finds (closing, one user) closes. *)
let u_leave w =
  let old = w.word in
  w.word <- U.leave old;
  if U.last old then begin
    if w.bit_by = None then violation "close(2) before the bit was set";
    if w.closes > 0 then violation "close(2) ran twice";
    if holders w > 0 then violation "close(2) with %d uses held" (holders w);
    w.closes <- w.closes + 1
  end

let u_apply w e =
  (match e with
  | User i -> (
      match w.us.(i) with
      | Enter -> (
          let was_closing = w.bit_by <> None in
          match U.enter w.word with
          | Some w' ->
              if was_closing then violation "user %d entered after the bit" i;
              w.word <- w';
              w.us.(i) <- Inside
          | None ->
              if not was_closing then violation "user %d refused while open" i;
              w.us.(i) <- Done_u)
      | Inside ->
          on_open w (Printf.sprintf "user %d's syscall" i);
          if w.kinds.(i) = Accepter then begin
            w.taken.(i) <- Some (List.hd w.pending);
            w.pending <- List.tl w.pending;
            w.us.(i) <- Check
          end
          else w.us.(i) <- Leave_u
      | Check ->
          (* Once closing has begun, whatever was taken is handed back;
             a wake-up must never be served as a connection. *)
          if w.taken.(i) = Some `Wake && not (U.closing w.word) then
            violation "user %d served the shutdown's wake-up" i;
          w.us.(i) <- Leave_u
      | Leave_u ->
          w.us.(i) <- Done_u;
          u_leave w
      | Done_u -> violation "user %d ran after it was done" i)
  | Closer k -> (
      match w.cs.(k) with
      | Close -> (
          let was_closing = w.bit_by <> None in
          match U.close w.word with
          | Some w' ->
              if was_closing then violation "closer %d set the bit twice" k;
              w.counted.(k) <- U.users w.word;
              w.word <- w';
              w.bit_by <- Some k;
              w.cs.(k) <- Wake
          | None ->
              if not was_closing then violation "closer %d refused while open" k;
              w.cs.(k) <- Done_c)
      | Wake ->
          if w.usc.shape = Channel then begin
            on_open w "shutdown(2)";
            w.shut <- true
          end
          else begin
            on_open w "the wake-up connect";
            w.pending <- w.pending @ List.init w.counted.(k) (fun _ -> `Wake)
          end;
          w.cs.(k) <- Leave_c
      | Leave_c ->
          w.cs.(k) <- Done_c;
          u_leave w
      | Done_c -> violation "closer %d ran after it was done" k)
  | Client ->
      w.clients_left <- w.clients_left - 1;
      if w.closes = 0 then w.pending <- w.pending @ [ `Client ]);
  if U.users w.word <> holders w then
    violation "the word counts %d users, %d hold a use" (U.users w.word) (holders w);
  if U.closing w.word <> (w.bit_by <> None) then violation "the bit disagrees with the closers"

let u_enabled w =
  let acc = ref [] in
  Array.iteri
    (fun i pc ->
      let ready =
        match (pc, w.kinds.(i)) with
        | Done_u, _ -> false
        | Inside, Reader -> w.shut
        | Inside, Accepter -> w.pending <> []
        | _ -> true
      in
      if ready then acc := User i :: !acc)
    w.us;
  Array.iteri (fun k pc -> if pc <> Done_c then acc := Closer k :: !acc) w.cs;
  if w.clients_left > 0 then acc := Client :: !acc;
  !acc

let u_final w =
  Array.iteri (fun i pc -> if pc <> Done_u then violation "user %d is stuck" i) w.us;
  if w.usc.closers > 0 then begin
    if w.closes <> 1 then violation "close(2) ran %d times" w.closes;
    if w.word <> 1 then violation "ended with word %d" w.word
  end
  else if w.word <> U.idle then violation "ended open with word %d" w.word

let u_scenarios =
  let c = { uname = ""; shape = Channel; users = []; closers = 1; clients = 0 } in
  let l = { c with shape = Listener } in
  [
    { c with uname = "channel: a reader and a writer, a close"; users = [ Reader; Writer ] };
    { c with uname = "channel: two writers, two closes"; users = [ Writer; Writer ]; closers = 2 };
    { c with uname = "channel: two readers, a writer, a close"; users = [ Reader; Reader; Writer ] };
    { l with uname = "listener: two accepts, a shutdown"; users = [ Accepter; Accepter ] };
    { l with uname = "listener: an accept, a client, two shutdowns"; users = [ Accepter ];
      closers = 2; clients = 1 };
    { l with uname = "listener: two accepts, two clients, a shutdown";
      users = [ Accepter; Accepter ]; clients = 2 };
  ]

(* ---------------- Retry.decide: the one re-send rule ---------------- *)

module R = Orb.Retry

type margin = No_deadline | Past | Below_nap | At_nap | Above_nap

let show_margin = function
  | No_deadline -> "no deadline"
  | Past -> "deadline past"
  | Below_nap -> "deadline below the backoff"
  | At_nap -> "deadline at the backoff"
  | Above_nap -> "deadline above the backoff"

let show_class = function
  | R.Transient -> "Transient"
  | R.Deadline -> "Deadline"
  | R.Permanent -> "Permanent"

let show_verdict = function
  | R.Retry_after nap -> Printf.sprintf "Retry_after %.4f" nap
  | R.Give_up -> "Give_up"
  | R.Exhausted -> "Exhausted"

(* Every input of the decision after a failed attempt: error class ×
   [unsent] × attempt (two with attempts left, the last without) ×
   budget empty or holding one credit × where the deadline falls against
   the backoff. Each row checks the verdict against DESIGN.md §5 written
   out on its own — a Deadline or Permanent error, or one not [unsent],
   is never retried, and no nap reaches the deadline — and that a credit
   is spent exactly when the verdict retries. No clock: [now] is given. *)
let test_decide () =
  let p =
    { R.max_attempts = 3; base_delay = 0.01; multiplier = 2.; max_delay = 0.05;
      jitter = 0.2; seed = 3 }
  in
  let now = 100. in
  let rows = ref 0 in
  let row cls unsent attempt credit margin =
    incr rows;
    let nap = R.delay_for p ~attempt in
    let deadline =
      match margin with
      | No_deadline -> None
      | Past -> Some (now -. 0.001)
      | Below_nap -> Some (now +. (nap /. 2.))
      | At_nap -> Some (now +. nap)
      | Above_nap -> Some (now +. (nap *. 2.))
    in
    let budget =
      R.Budget.create
        ~config:{ R.Budget.ratio = 0.; reserve = (if credit then 1 else 0); cap = 1 }
        ()
    in
    let v = R.decide p ~budget ~attempt cls ~unsent ~deadline ~now in
    let fail what =
      Alcotest.failf "%s, unsent=%b, attempt %d of %d, %s budget, %s: %s (%s)"
        (show_class cls) unsent attempt p.R.max_attempts
        (if credit then "one-credit" else "empty")
        (show_margin margin) what (show_verdict v)
    in
    let allowed =
      cls = R.Transient && unsent && attempt < p.R.max_attempts
      && (margin = No_deadline || margin = Above_nap)
    in
    let expected =
      if not allowed then R.Give_up
      else if credit then R.Retry_after nap
      else R.Exhausted
    in
    if v <> expected then fail ("expected " ^ show_verdict expected);
    (match v with
    | R.Retry_after n ->
        if cls <> R.Transient then fail "retried a non-Transient error";
        if not unsent then fail "retried an error that may have executed";
        if Option.fold ~none:false ~some:(fun d -> now +. n >= d) deadline then
          fail "nap reaches the deadline"
    | R.Give_up | R.Exhausted -> ());
    if R.resend_safe cls ~unsent <> (cls = R.Transient && unsent) then
      fail "resend_safe disagrees with the rule";
    let spent = if credit then 1 - R.Budget.balance budget else 0 in
    if spent <> (if v = R.Retry_after nap then 1 else 0) then
      fail (Printf.sprintf "spent %d credits" spent)
  in
  List.iter
    (fun cls ->
      List.iter
        (fun unsent ->
          List.iter
            (fun attempt ->
              List.iter
                (fun credit ->
                  List.iter (row cls unsent attempt credit)
                    [ No_deadline; Past; Below_nap; At_nap; Above_nap ])
                [ false; true ])
            [ 1; 2; 3 ])
        [ false; true ])
    [ R.Transient; R.Deadline; R.Permanent ];
  Printf.printf "Retry.decide: %d rows\n%!" !rows;
  Alcotest.(check int) "every combination" 180 !rows

(* ---------------- the runs ---------------- *)

let run_all ~what scenarios run =
  let total =
    List.fold_left
      (fun acc (name, f) ->
        let n =
          try run f
          with Counterexample (m, trace) ->
            Alcotest.failf "%s: %s after %d events: %s" name m (List.length trace)
              (String.concat "; " trace)
        in
        Printf.printf "  %-48s %8d interleavings\n%!" name n;
        acc + n)
      0 scenarios
  in
  Printf.printf "%s: %d interleavings\n%!" what total;
  total

let test_mux () =
  let total =
    run_all ~what:"Mux"
      (List.map (fun sc -> (sc.name, `Conn sc)) mux_scenarios
      @ List.map
          (fun n -> (Printf.sprintf "cache: %d dialers against shutdown" n, `Cache n))
          [ 2; 3 ])
      (function
        | `Conn sc ->
            explore ~fresh:(fresh sc) ~enabled ~apply ~final ~show
        | `Cache n ->
            explore ~fresh:(cache_fresh n) ~enabled:cache_enabled ~apply:cache_apply
              ~final:cache_final ~show:show_c)
  in
  Alcotest.(check bool) ">= 10^4 interleavings" true (total >= 10_000)

let test_admit () =
  let total =
    run_all ~what:"Admit"
      (List.map (fun asc -> (asc.aname, asc)) admit_scenarios)
      (fun asc ->
        explore ~fresh:(admit_fresh asc) ~enabled:admit_enabled ~apply:admit_apply
          ~final:admit_final ~show:show_a)
  in
  Alcotest.(check bool) ">= 10^4 interleavings" true (total >= 10_000)

let test_breaker () =
  let total =
    run_all ~what:"Breaker"
      (List.map (fun bsc -> (bsc.bname, bsc)) b_scenarios)
      (fun bsc ->
        explore ~fresh:(b_fresh bsc) ~enabled:b_enabled ~apply:b_apply ~final:b_final
          ~show:show_b)
  in
  Alcotest.(check bool) ">= 10^4 interleavings" true (total >= 10_000)

let test_breaker_rules () =
  List.iter
    (fun (name, bsc, schedule, expect) ->
      let w = b_fresh bsc () in
      (try List.iter (b_apply w) schedule
       with Violation m -> Alcotest.failf "%s: %s" name m);
      let got, want = expect w in
      if got <> want then
        Alcotest.failf "%s: got %s, want %s after %s" name got want
          (String.concat "; " (List.map show_b schedule)))
    b_rows

let test_pool () =
  let total =
    run_all ~what:"Pool"
      (List.map (fun psc -> (psc.pname, psc)) p_scenarios)
      (fun psc ->
        explore ~fresh:(p_fresh psc) ~enabled:p_enabled ~apply:p_apply ~final:p_final
          ~show:show_p)
  in
  Alcotest.(check bool) ">= 10^4 interleavings" true (total >= 10_000)

let test_use () =
  let total =
    run_all ~what:"Use"
      (List.map (fun usc -> (usc.uname, usc)) u_scenarios)
      (fun usc ->
        explore ~fresh:(u_fresh usc) ~enabled:u_enabled ~apply:u_apply ~final:u_final
          ~show:show_u)
  in
  Alcotest.(check bool) ">= 10^4 interleavings" true (total >= 10_000)

let () =
  Alcotest.run "state_machines"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "Mux: every interleaving" `Quick test_mux;
          Alcotest.test_case "Admit: every interleaving" `Quick test_admit;
          Alcotest.test_case "Breaker: every interleaving" `Quick test_breaker;
          Alcotest.test_case "Pool: every interleaving" `Quick test_pool;
        ] );
      ( "tcp fd",
        [ Alcotest.test_case "Use: every interleaving" `Quick test_use ] );
      ( "breaker",
        [ Alcotest.test_case "Breaker: rules (a)-(d)" `Quick test_breaker_rules ] );
      ( "retry",
        [ Alcotest.test_case "Retry.decide: every combination" `Quick test_decide ] );
    ]
