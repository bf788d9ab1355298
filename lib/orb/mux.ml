type kind = Oneway | Call | Locate

type cell = { id : int; kind : kind; mutable reply : Protocol.message option }

type gate = Settled | Fresh | Offering

type t = {
  pending : (int, cell) Hashtbl.t;
  mutable inflight : int;
  mutable unsent : int;
  limit : int;
  mutable dead : exn option;
  mutable gate : gate;
}

let create ~limit ~negotiate =
  { pending = Hashtbl.create 16; inflight = 0; unsent = 0; limit = max 1 limit;
    dead = None; gate = (if negotiate then Fresh else Settled) }

let cell = function
  | Protocol.Request r ->
      { id = r.Protocol.req_id; kind = (if r.Protocol.oneway then Oneway else Call);
        reply = None }
  | Protocol.Locate_request { req_id; _ } -> { id = req_id; kind = Locate; reply = None }
  | Protocol.Reply _ | Protocol.Locate_reply _ | Protocol.Locate_forward _ ->
      invalid_arg "Mux.cell: not a request"

type verdict =
  | Admitted
  | Admitted_offer
  | Behind_offer
  | No_slot
  | Replied
  | Waiting
  | Dead of exn

let holds = function Behind_offer | No_slot | Waiting -> true | _ -> false

let register t c =
  if c.kind = Oneway then t.unsent <- t.unsent + 1
  else begin
    Hashtbl.replace t.pending c.id c;
    t.inflight <- t.inflight + 1
  end

let admit t c ~expired =
  match (t.dead, t.gate) with
  | Some err, _ -> Dead err
  | None, Offering -> Behind_offer
  | None, Fresh when c.kind = Call ->
      if expired || t.inflight > 0 || t.unsent > 0 then Behind_offer
      else begin
        t.gate <- Offering;
        register t c;
        Admitted_offer
      end
  | None, (Fresh | Settled) ->
      if expired || not (c.kind = Oneway || t.inflight < t.limit) then No_slot
      else begin
        register t c;
        Admitted
      end

let unregister t c ~reoffer =
  let owed = Hashtbl.mem t.pending c.id in
  if owed then begin
    Hashtbl.remove t.pending c.id;
    t.inflight <- t.inflight - 1
  end;
  if c.kind = Oneway then t.unsent <- t.unsent - 1;
  if reoffer then t.gate <- Fresh;
  owed || reoffer || (c.kind = Oneway && t.unsent = 0)

let await t c =
  match (c.reply, t.dead) with
  | Some _, _ -> Replied
  | None, Some err -> Dead err
  | None, None -> Waiting

let settle t = t.gate <- Settled

let kill t err =
  let first = t.dead = None in
  if first then t.dead <- Some err;
  first

type reader = Read | Idle | Stop

let reader t =
  if t.dead <> None then Stop
  else if Hashtbl.length t.pending > 0 then Read
  else Idle

type delivery = Delivered | Orphan of int | Wrong_kind of int | Not_a_reply

let deliver t msg =
  match msg with
  | Protocol.Request _ | Protocol.Locate_request _ -> Not_a_reply
  | Protocol.Reply { Protocol.rep_id = id; _ }
  | Protocol.Locate_reply { rep_id = id; _ }
  | Protocol.Locate_forward { rep_id = id; _ } -> (
      match Hashtbl.find_opt t.pending id with
      | None -> Orphan id
      | Some c -> (
          match (c.kind, msg) with
          | Call, Protocol.Locate_reply _ | Locate, Protocol.Reply _ -> Wrong_kind id
          | _ ->
              c.reply <- Some msg;
              Hashtbl.remove t.pending id;
              t.inflight <- t.inflight - 1;
              Delivered))

type ('k, 'c) cache = { conns : ('k, 'c) Hashtbl.t; mutable closed : bool }
type 'c slot = Cached of 'c | Dial | Won | Shut

let cache () = { conns = Hashtbl.create 16; closed = false }

let lookup k key =
  match Hashtbl.find k.conns key with
  | c -> Cached c
  | exception Not_found -> if k.closed then Shut else Dial

let install k key c =
  if k.closed then Shut
  else
    match Hashtbl.find k.conns key with
    | winner -> Cached winner
    | exception Not_found ->
        Hashtbl.replace k.conns key c;
        Won

let remove k key c =
  match Hashtbl.find_opt k.conns key with
  | Some cur when cur == c -> Hashtbl.remove k.conns key
  | _ -> ()

let close k =
  k.closed <- true;
  let all = Hashtbl.fold (fun _ c acc -> c :: acc) k.conns [] in
  Hashtbl.reset k.conns;
  all

let reopen k = k.closed <- false
