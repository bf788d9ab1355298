(* Replicated endpoints, lease-based naming, failover, and
   location-forward in one tour (DESIGN.md "Replication and naming").

   Three replica servers export the same sensor object; each registers
   itself at a naming servant under a TTL lease. The client resolves
   once and receives a single multi-endpoint reference — the runtime
   spreads calls over the replicas (power-of-two-choices), fails over
   when one dies, and the breaker fences the dead endpoint off. When a
   lease lapses, resolving again reflects the surviving set. Finally, a
   server-side location forward redirects clients mid-flight.

   Run with: dune exec examples/naming.exe *)

let sensor_type = "IDL:Plant/Sensor:1.0"
let oid = "sensor"

let sensor_skeleton ~name =
  let reads = ref 0 in
  ( Orb.Skeleton.create ~type_id:sensor_type
      [
        ( "read",
          fun _ results ->
            incr reads;
            results.Wire.Codec.put_double 20.0 );
        ("name", fun _ results -> results.Wire.Codec.put_string name);
      ],
    reads )

let start_replica ~name =
  let orb = Orb.create () in
  Orb.start orb;
  let skel, reads = sensor_skeleton ~name in
  let r = Orb.export_named orb ~oid skel in
  (orb, r, reads)

let () =
  (* The naming server, on its own ORB like a real deployment. *)
  let ns = Orb.create () in
  Orb.start ns;
  let _registry, nref = Orb.Naming.serve ns in
  Printf.printf "naming servant:    %s\n" (Orb.Objref.to_string nref);

  (* Three replicas of the same logical sensor, each registering itself
     under a short lease it would have to keep renewing. *)
  let replicas = List.map (fun n -> start_replica ~name:n) [ "a"; "b"; "c" ] in
  let client =
    Orb.create ~retry:{ Orb.Retry.default with max_attempts = 4 }
      ~breaker:{ Orb.Breaker.default_config with failure_threshold = 1 }
      ()
  in
  List.iter
    (fun (_, r, _) ->
      ignore (Orb.Naming.register client nref ~name:"plant/sensor" r ~ttl:5.))
    replicas;

  (* One resolve returns the merged endpoint set. *)
  let resolver = Orb.Naming.resolver client nref ~name:"plant/sensor" in
  let sensor = Orb.Naming.current resolver in
  Printf.printf "resolved:          %s\n\n" (Orb.Objref.to_string sensor);

  let read () =
    match Orb.Naming.call client resolver ~op:"read" (fun _ -> ()) with
    | Some d -> d.Wire.Codec.get_double ()
    | None -> assert false
  in
  for _ = 1 to 30 do
    ignore (read ())
  done;
  List.iter
    (fun (_, r, reads) ->
      Printf.printf "replica %s served %2d reads\n"
        (Orb.Objref.to_string (Orb.Objref.at_endpoint r (Orb.Objref.endpoint r)))
        !reads)
    replicas;

  (* Kill one replica: calls keep succeeding on the survivors. *)
  let dead_orb, dead_ref, _ = List.hd replicas in
  Orb.shutdown dead_orb;
  Orb.Naming.unregister client nref ~name:"plant/sensor" dead_ref;
  for _ = 1 to 10 do
    ignore (read ())
  done;
  let st = Orb.stats client in
  Printf.printf "\nafter killing one replica: failovers=%d, breakers=[%s]\n"
    st.Orb.failovers
    (String.concat "; "
       (List.map (fun (k, s) -> k ^ "=" ^ s) st.Orb.breaker_states));

  (* Location forward: replica b starts redirecting to replica c. *)
  let orb_b, _, _ = List.nth replicas 1 in
  let _, ref_c, reads_c = List.nth replicas 2 in
  Orb.set_forward orb_b ~oid ref_c;
  let before = !reads_c in
  for _ = 1 to 10 do
    ignore (read ())
  done;
  Printf.printf "after forwarding b->c: replica c served %d more reads, \
                 client followed %d forwards\n"
    (!reads_c - before)
    (Orb.stats client).Orb.forwards;

  Printf.printf "\nobs snapshot: %s\n"
    (Orb.Obs.snapshot_to_json (Orb.Obs.snapshot (Orb.obs client)))
