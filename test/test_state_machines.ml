(* The connection state machines — [Orb.Mux] (the client demux, codec
   gate and connection cache) and [Orb.Admit] (server admission) — run
   through every interleaving of small event sets, and the client's one
   retry decision ([Orb.Retry.decide]) over every combination of its
   inputs. No threads and no
   clock: each event is one lock section of the ORB's shell around the
   module, and a depth-first search tries every enabled event at every
   state. A state is rebuilt by replaying its schedule into a fresh
   world, so the modules need no copy function. Each scenario prints
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

(* ---------------- Admit: one server connection ---------------- *)

type rspec = { oneway : bool; budget : bool }

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

type aworld = {
  asc : ascenario;
  adm : Admit.t;
  conn : Admit.conn;
  rq : req array;
  mutable next : int;
  mutable queue : int list;  (* FIFO, head first *)
  mutable running : int;
  mutable drained : bool;
}

type aevent =
  | Decode
  | Submit of [ `Accepted | `Rejected | `Expired ]
  | Pickup
  | Finish of int
  | Tick of int
  | Cancel
  | Drain

let show_a = function
  | Decode -> "decode"
  | Submit `Accepted -> "submit accepted"
  | Submit `Rejected -> "submit rejected"
  | Submit `Expired -> "submit expired"
  | Pickup -> "pickup"
  | Finish i -> Printf.sprintf "finish %d" i
  | Tick i -> Printf.sprintf "tick %d" i
  | Cancel -> "cancel"
  | Drain -> "drain"

(* Budgets expire at t = 10 s; a request's clock reads one of three
   instants, and the learned service time is 100 µs. *)
let expiry r = if r.rs.budget then Some 10. else None
let now r = [| 0.; 10. -. 1e-5; 10. |].(r.phase)
let service_us = 100

let admit_fresh asc () =
  { asc; adm = Admit.create ~cap:asc.cap; conn = Admit.conn ();
    rq =
      Array.of_list
        (List.map (fun rs -> { rs; st = Unread; phase = 0; replies = 0; outcomes = 0 }) asc.reqs);
    next = 0; queue = []; running = 0; drained = false }

(* An answer: a reply for a two-way request, nothing on the wire for a
   oneway; either way the request's one outcome. *)
let answer r =
  if not r.rs.oneway then r.replies <- r.replies + 1;
  r.outcomes <- r.outcomes + 1;
  r.st <- Answered

let decoded w = List.find_opt (fun i -> w.rq.(i).st = Decoded) (List.init (Array.length w.rq) Fun.id)

let admit_apply w e =
  (match e with
  | Decode -> (
      let i = w.next in
      let r = w.rq.(i) in
      w.next <- i + 1;
      match Admit.arrive w.adm w.conn ~expiry:(expiry r) ~now:(now r) with
      | Admit.Run ->
          if w.drained then violation "request %d admitted while draining" i;
          if r.phase = 2 then violation "request %d admitted after its expiry" i;
          if w.asc.pooled then r.st <- Decoded
          else begin
            answer r;
            Admit.finish w.conn
          end
      | Admit.Refuse _ -> answer r)
  | Submit o -> (
      let i = Option.get (decoded w) in
      let r = w.rq.(i) in
      match o with
      | `Accepted ->
          r.st <- Queued;
          w.queue <- w.queue @ [ i ]
      | (`Rejected | `Expired) as o ->
          ignore
            (Admit.submitted w.conn
               (match o with `Rejected -> `Rejected "overloaded" | `Expired -> `Expired));
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
          Admit.finish w.conn)
  | Finish i ->
      answer w.rq.(i);
      w.running <- w.running - 1;
      Admit.finish w.conn
  | Tick i -> w.rq.(i).phase <- w.rq.(i).phase + 1
  | Cancel ->
      let i = List.hd w.queue in
      w.queue <- List.tl w.queue;
      ignore (Admit.cancel w.conn);
      answer w.rq.(i)
  | Drain ->
      w.drained <- true;
      w.adm.Admit.draining <- true);
  let counted =
    Array.fold_left
      (fun n r -> match r.st with Decoded | Queued | Running -> n + 1 | _ -> n)
      0 w.rq
  in
  if w.conn.Admit.inflight <> counted then
    violation "inflight %d but %d requests admitted and unanswered" w.conn.Admit.inflight
      counted;
  if w.asc.cap > 0 && counted > w.asc.cap then violation "%d in flight over the cap" counted;
  Array.iteri
    (fun i r ->
      if r.replies > 1 || r.outcomes > 1 then violation "request %d answered twice" i)
    w.rq

let admit_enabled w =
  let acc = ref [] in
  let add e = acc := e :: !acc in
  (match decoded w with
  | Some i ->
      add (Submit `Accepted);
      add (Submit `Rejected);
      if w.rq.(i).phase = 2 then add (Submit `Expired)
  | None -> if w.next < Array.length w.rq then add Decode);
  if w.queue <> [] then begin
    if w.running < w.asc.workers then add Pickup;
    if w.asc.cancel then add Cancel
  end;
  if w.asc.drain && not w.drained then add Drain;
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
  if w.conn.Admit.inflight <> 0 then violation "ended with %d in flight" w.conn.Admit.inflight

let two_way ?(budget = false) () = { oneway = false; budget }

let admit_scenarios =
  let a = { aname = ""; cap = 0; pooled = true; workers = 2; reqs = []; drain = true;
            cancel = true } in
  [
    { a with aname = "pool, a budget, a oneway, drain and cancel";
      reqs = [ two_way ~budget:true (); { oneway = true; budget = false }; two_way () ] };
    { a with aname = "pool, cap 2, one worker, budgets"; cap = 2; workers = 1; drain = false;
      cancel = false; reqs = [ two_way ~budget:true (); two_way (); two_way ~budget:true () ] };
    { a with aname = "thread per connection, cap 1"; cap = 1; pooled = false; cancel = false;
      reqs = [ two_way ~budget:true (); two_way ~budget:true ();
               { oneway = true; budget = true } ] };
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
      fail (Printf.sprintf "spent %d credits" spent);
    if R.Budget.exhaustions budget <> (if v = R.Exhausted then 1 else 0) then
      fail "exhaustion count"
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

let () =
  Alcotest.run "state_machines"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "Mux: every interleaving" `Quick test_mux;
          Alcotest.test_case "Admit: every interleaving" `Quick test_admit;
        ] );
      ( "retry",
        [ Alcotest.test_case "Retry.decide: every combination" `Quick test_decide ] );
    ]
