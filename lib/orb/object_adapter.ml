module Smap = Map.Make (String)
module Imap = Map.Make (Int)

(* One immutable version of the tables: a request reads it with one
   atomic load, a registration publishes the next one. *)
type state = {
  skeletons : Skeleton.t Smap.t;
  forwards : Objref.t Smap.t;  (* oid -> redirect target *)
  by_key : string Imap.t;  (* servant identity -> oid *)
  next_oid : int;
}

type t = { state : state Atomic.t; hits : int Atomic.t }

let empty =
  { skeletons = Smap.empty; forwards = Smap.empty; by_key = Imap.empty;
    next_oid = 1 }

let create () = { state = Atomic.make empty; hits = Atomic.make 0 }

let update t f = Locked.update t.state f

(* Register under the first free numeric oid from [next_oid] on: an
   automatic oid never replaces a servant exported under a chosen one. *)
let rec add_fresh s skel =
  let oid = string_of_int s.next_oid in
  let s = { s with next_oid = s.next_oid + 1 } in
  if Smap.mem oid s.skeletons then add_fresh s skel
  else ({ s with skeletons = Smap.add oid skel s.skeletons }, oid)

let register t skel = update t (fun s -> add_fresh s skel)

let register_named t ~oid skel =
  if String.contains oid '#' then
    invalid_arg "Object_adapter.register_named: oid must not contain '#'";
  update t (fun s ->
      if Smap.mem oid s.skeletons then
        invalid_arg
          (Printf.sprintf "Object_adapter.register_named: oid %S is taken" oid);
      ({ s with skeletons = Smap.add oid skel s.skeletons }, ()))

let register_cached t ~key build =
  match Imap.find_opt key (Atomic.get t.state).by_key with
  | Some oid ->
      Atomic.incr t.hits;
      oid
  | None ->
      let skel = build () in
      update t (fun s ->
          match Imap.find_opt key s.by_key with
          | Some oid -> (s, oid)  (* lost the race: the winner's oid *)
          | None ->
              let s, oid = add_fresh s skel in
              ({ s with by_key = Imap.add key oid s.by_key }, oid))

let cache_hits t = Atomic.get t.hits
let lookup t oid = Smap.find_opt oid (Atomic.get t.state).skeletons

let set_forward t ~oid target =
  update t (fun s -> ({ s with forwards = Smap.add oid target s.forwards }, ()))

let clear_forward t ~oid =
  update t (fun s -> ({ s with forwards = Smap.remove oid s.forwards }, ()))

let forward t oid = Smap.find_opt oid (Atomic.get t.state).forwards

let unregister t oid =
  update t (fun s ->
      ( { s with
          skeletons = Smap.remove oid s.skeletons;
          (* Drop any identity-cache entry pointing at this oid. *)
          by_key = Imap.filter (fun _ o -> o <> oid) s.by_key },
        () ))

let count t = Smap.cardinal (Atomic.get t.state).skeletons
