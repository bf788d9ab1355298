(* Lease-based naming (DESIGN.md "Replication and naming").

   A naming servant maps service names to *sets* of provider references
   under time-bounded leases: each replica registers its own reference
   with a TTL and must re-register before the lease lapses; [resolve]
   merges the live providers into one multi-endpoint reference, so the
   client-side failover and load-balancing machinery sees every replica
   behind a single logical target. Replica death needs no deregistration
   protocol — a dead replica simply stops renewing.

   This module is ORB-independent: the server half is a plain skeleton
   over a lease registry, the client half is parameterized over an
   invoker function. [Orb.Naming] binds both to a live ORB. *)

let type_id = "IDL:Heidi/Naming:1.0"
let default_oid = "naming"

(* ---------------- server half: the lease registry ---------------- *)

type config = {
  default_ttl : float;  (* granted when the caller requests ttl <= 0 *)
  max_ttl : float;  (* requested TTLs are clamped to this *)
}

let default_config = { default_ttl = 30.; max_ttl = 3600. }

type lease = { provider : Objref.t; mutable expires_at : float }

type registry = {
  cfg : config;
  lock : Locked.t;
  entries : (string, lease list) Hashtbl.t;  (* name -> live-ish leases *)
  mutable grants : int;  (* registrations + renewals *)
  mutable expiries : int;  (* leases dropped because they lapsed *)
}

let create ?(config = default_config) () =
  {
    cfg = config;
    lock = Locked.create ~name:"naming.registry" ~rank:Locked.Rank.naming_registry;
    entries = Hashtbl.create 16;
    grants = 0;
    expiries = 0;
  }

(* Expiry is lazy: leases are pruned whenever their name is touched.
   Call with [r.lock] held. *)
let prune_locked r name now =
  match Hashtbl.find_opt r.entries name with
  | None -> []
  | Some leases ->
      let live, dead = List.partition (fun l -> l.expires_at > now) leases in
      r.expiries <- r.expiries + List.length dead;
      if live = [] then Hashtbl.remove r.entries name
      else if dead <> [] then Hashtbl.replace r.entries name live;
      live

let granted_ttl r ttl =
  if ttl <= 0. then r.cfg.default_ttl else Float.min ttl r.cfg.max_ttl

let grant r ~name provider ~ttl =
  let now = Unix.gettimeofday () in
  let granted = granted_ttl r ttl in
  Locked.with_lock r.lock (fun () ->
      let live = prune_locked r name now in
      (match List.find_opt (fun l -> Objref.equal l.provider provider) live with
      | Some l -> l.expires_at <- now +. granted  (* renewal *)
      | None ->
          Hashtbl.replace r.entries name
            (live @ [ { provider; expires_at = now +. granted } ]));
      r.grants <- r.grants + 1);
  granted

let revoke r ~name provider =
  let now = Unix.gettimeofday () in
  Locked.with_lock r.lock (fun () ->
      match
        List.filter
          (fun l -> not (Objref.equal l.provider provider))
          (prune_locked r name now)
      with
      | [] -> Hashtbl.remove r.entries name
      | live -> Hashtbl.replace r.entries name live)

(* Merge the live providers of [name] into one reference: the earliest
   surviving registration is the base; every provider sharing its oid
   and type (i.e. a genuine replica of the same object) contributes its
   endpoints, first-registered first, duplicates dropped. The returned
   TTL is the time until the soonest merged lease lapses — refreshing
   then keeps the client ahead of every expiry. *)
let lookup r ~name =
  let now = Unix.gettimeofday () in
  Locked.with_lock r.lock (fun () ->
      match prune_locked r name now with
      | [] -> None
      | first :: _ as live ->
          let base = first.provider in
          let replicas =
            List.filter
              (fun l ->
                l.provider.Objref.oid = base.Objref.oid
                && l.provider.Objref.type_id = base.Objref.type_id)
              live
          in
          let eps =
            List.fold_left
              (fun acc l ->
                List.fold_left
                  (fun acc ep -> if List.mem ep acc then acc else ep :: acc)
                  acc
                  (Objref.endpoints l.provider))
              [] replicas
          in
          let merged = Objref.with_endpoints base (List.rev eps) in
          let ttl =
            List.fold_left
              (fun acc l -> Float.min acc (l.expires_at -. now))
              infinity replicas
          in
          Some (merged, ttl))

let names r =
  let now = Unix.gettimeofday () in
  Locked.with_lock r.lock (fun () ->
      let ns = Hashtbl.fold (fun k _ acc -> k :: acc) r.entries [] in
      List.sort compare
        (List.filter (fun n -> prune_locked r n now <> []) ns))

let grants r = Locked.with_lock r.lock (fun () -> r.grants)
let expiries r = Locked.with_lock r.lock (fun () -> r.expiries)

(* The wire surface. TTLs travel as seconds in a double; a nil byref
   answers a failed resolve. *)
let skeleton r =
  Skeleton.create ~type_id
    [
      ( "register",
        fun args res ->
          let name = args.Wire.Codec.get_string () in
          match Serial.get_byref args with
          | None -> failwith "naming.register: nil provider reference"
          | Some provider ->
              let ttl = args.Wire.Codec.get_double () in
              res.Wire.Codec.put_double (grant r ~name provider ~ttl) );
      ( "unregister",
        fun args _res ->
          let name = args.Wire.Codec.get_string () in
          match Serial.get_byref args with
          | None -> ()
          | Some provider -> revoke r ~name provider );
      ( "resolve",
        fun args res ->
          let name = args.Wire.Codec.get_string () in
          match lookup r ~name with
          | Some (merged, ttl) ->
              Serial.put_byref res (Some merged);
              res.Wire.Codec.put_double ttl
          | None ->
              Serial.put_byref res None;
              res.Wire.Codec.put_double 0. );
      ( "list",
        fun _args res ->
          let ns = names r in
          res.Wire.Codec.put_len (List.length ns);
          List.iter res.Wire.Codec.put_string ns );
    ]

(* ---------------- client half ---------------- *)

type invoker =
  Objref.t -> op:string -> (Wire.Codec.encoder -> unit) ->
  Wire.Codec.decoder option

exception Unresolved of string

let () =
  Printexc.register_printer (function
    | Unresolved m -> Some (Printf.sprintf "Orb.Naming.Unresolved: %s" m)
    | _ -> None)

let register_via (call : invoker) nref ~name provider ~ttl =
  match
    call nref ~op:"register" (fun e ->
        e.Wire.Codec.put_string name;
        Serial.put_byref e (Some provider);
        e.Wire.Codec.put_double ttl)
  with
  | Some d -> d.Wire.Codec.get_double ()
  | None -> raise (Unresolved "naming.register: no reply")

let unregister_via (call : invoker) nref ~name provider =
  ignore
    (call nref ~op:"unregister" (fun e ->
         e.Wire.Codec.put_string name;
         Serial.put_byref e (Some provider)))

let resolve_via (call : invoker) nref ~name =
  match call nref ~op:"resolve" (fun e -> e.Wire.Codec.put_string name) with
  | Some d -> (
      let target = Serial.get_byref d in
      let ttl = d.Wire.Codec.get_double () in
      match target with
      | Some target when ttl > 0. -> Some (target, ttl)
      | _ -> None)
  | None -> None

let list_via (call : invoker) nref =
  match call nref ~op:"list" (fun _ -> ()) with
  | Some d ->
      let n = d.Wire.Codec.get_len () in
      List.init n (fun _ -> d.Wire.Codec.get_string ())
  | None -> []

(* A resolver caches the resolved endpoint set until its lease lapses —
   the client goes back to the naming service only on expiry or when
   told the cached placement is dead ([invalidate]). *)
type resolver = {
  rs_call : invoker;
  rs_nref : Objref.t;
  rs_name : string;
  rs_lock : Locked.t;
  mutable rs_cached : (Objref.t * float) option;  (* target, lease deadline *)
  mutable rs_resolves : int;  (* trips to the naming service *)
}

let resolver_via (call : invoker) nref ~name =
  {
    rs_call = call;
    rs_nref = nref;
    rs_name = name;
    rs_lock =
      Locked.create ~name:"naming.resolver" ~rank:Locked.Rank.naming_resolver;
    rs_cached = None;
    rs_resolves = 0;
  }

let invalidate rs = Locked.with_lock rs.rs_lock (fun () -> rs.rs_cached <- None)
let resolves rs = Locked.with_lock rs.rs_lock (fun () -> rs.rs_resolves)

let current_via (call : invoker) rs =
  let now = Unix.gettimeofday () in
  let cached =
    Locked.with_lock rs.rs_lock (fun () ->
        match rs.rs_cached with
        | Some (target, deadline) when deadline > now -> Some target
        | _ -> None)
  in
  match cached with
  | Some target -> target
  | None -> (
      (* The resolve RPC runs outside the resolver lock; concurrent
         expirers may resolve twice, which is merely redundant. *)
      match resolve_via call rs.rs_nref ~name:rs.rs_name with
      | Some (target, ttl) ->
          Locked.with_lock rs.rs_lock (fun () ->
              rs.rs_cached <- Some (target, now +. ttl);
              rs.rs_resolves <- rs.rs_resolves + 1);
          target
      | None ->
          Locked.with_lock rs.rs_lock (fun () ->
              rs.rs_cached <- None;
              rs.rs_resolves <- rs.rs_resolves + 1);
          raise
            (Unresolved (Printf.sprintf "name %S is not bound" rs.rs_name)))

let current rs = current_via rs.rs_call rs
