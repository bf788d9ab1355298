type invoker =
  Objref.t ->
  op:string ->
  Wire.Codec.t * string ->
  (Wire.Codec.encoder -> unit) ->
  Wire.Codec.t * string

type t = {
  invoker : invoker;
  codec : Wire.Codec.t;  (* the memo key's encoding *)
  target : Objref.t;
  capacity : int;
  invalidate_on : string list;
  lock : Locked.t;
  memo : (string * string, Wire.Codec.t * string) Hashtbl.t;
      (* (op, args) -> reply payload and the codec it is in *)
  mutable order : (string * string) list;  (* newest first *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 64) ?(invalidate_on = []) ~codec invoker target =
  {
    invoker;
    codec;
    target;
    capacity = max 1 capacity;
    invalidate_on;
    lock = Locked.create ~name:"smart" ~rank:Locked.Rank.smart;
    memo = Hashtbl.create 32;
    order = [];
    hits = 0;
    misses = 0;
  }

let with_lock t f = Locked.with_lock t.lock f

let invalidate t =
  with_lock t (fun () ->
      Hashtbl.reset t.memo;
      t.order <- [])

let remember t key reply =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.memo key) then (
        Hashtbl.replace t.memo key reply;
        t.order <- key :: t.order;
        if List.length t.order > t.capacity then
          match List.rev t.order with
          | oldest :: rest ->
              Hashtbl.remove t.memo oldest;
              t.order <- List.rev rest
          | [] -> ()))

let lookup t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.memo key with
      | Some reply ->
          t.hits <- t.hits + 1;
          Some reply
      | None ->
          t.misses <- t.misses + 1;
          None)

let call t ~op marshal =
  let args =
    let e = t.codec.Wire.Codec.encoder () in
    marshal e;
    e.Wire.Codec.finish ()
  in
  let fetch () = t.invoker t.target ~op (t.codec, args) marshal in
  let decode ((codec : Wire.Codec.t), payload) = codec.decoder payload in
  if List.mem op t.invalidate_on then (
    invalidate t;
    decode (fetch ()))
  else
    let key = (op, args) in
    match lookup t key with
    | Some reply -> decode reply
    | None ->
        let reply = fetch () in
        remember t key reply;
        decode reply

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let target t = t.target
