(* Replicated endpoints end-to-end (DESIGN.md "Replication and
   naming"): a three-replica mem-transport cluster behind one
   multi-endpoint reference. Kill a replica mid-flight and the
   collateral waiters must land on the survivors; once its breaker
   opens the endpoint is skipped outright; an ambiguous failure on an
   at-most-once operation is never re-sent; and a lapsed naming lease
   makes the resolver go back to the naming servant. *)

let sensor_type = "IDL:Failover/Sensor:1.0"
let oid = "sensor"

type replica = { orb : Orb.t; r : Orb.Objref.t; count : int ref }

(* One replica: counts every dispatched call, so the tests can assert
   both load spread and (for at-most-once) exactly-how-many-times. *)
let start_replica ?server_policy ?(transport = "mem") () =
  let orb = Orb.create ?server_policy ~transport ~host:"local" () in
  Orb.start orb;
  let count = ref 0 in
  let m = Mutex.create () in
  let bump () = Mutex.protect m (fun () -> incr count) in
  let skel =
    Orb.Skeleton.create ~type_id:sensor_type
      [
        ( "get",
          fun _ results ->
            bump ();
            results.Wire.Codec.put_long 7 );
        ( "slow",
          fun _ results ->
            bump ();
            Thread.delay 0.08;
            results.Wire.Codec.put_long 7 );
        ( "lag",
          fun _ results ->
            bump ();
            Thread.delay 0.15;
            results.Wire.Codec.put_long 7 );
        ( "bump_slow",
          fun _ results ->
            bump ();
            Thread.delay 0.3;
            results.Wire.Codec.put_long 7 );
      ]
  in
  let r = Orb.export_named orb ~oid skel in
  { orb; r; count }

let multi_ref replicas =
  Orb.Objref.make_multi
    ~endpoints:(List.map (fun rep -> Orb.Objref.endpoint rep.r) replicas)
    ~oid ~type_id:sensor_type

let ep_key rep =
  let proto, host, port = Orb.Objref.endpoint rep.r in
  Printf.sprintf "%s:%s:%d" proto host port

let get client target =
  match Orb.invoke client target ~op:"get" (fun _ -> ()) with
  | Some d -> d.Wire.Codec.get_long ()
  | None -> Alcotest.fail "get returned no reply"

let shutdown_all replicas = List.iter (fun rep -> Orb.shutdown rep.orb) replicas

(* ---------------- load spread ---------------- *)

let test_calls_spread_over_replicas () =
  let replicas = List.init 3 (fun _ -> start_replica ()) in
  let client = Orb.create ~transport:"mem" ~host:"local" () in
  let target = multi_ref replicas in
  for _ = 1 to 60 do
    Alcotest.(check int) "result" 7 (get client target)
  done;
  let counts = List.map (fun rep -> !(rep.count)) replicas in
  Alcotest.(check int) "total" 60 (List.fold_left ( + ) 0 counts);
  List.iteri
    (fun i c ->
      if c = 0 then
        Alcotest.failf "replica %d starved: spread %s" i
          (String.concat "/" (List.map string_of_int counts)))
    counts;
  Orb.shutdown client;
  shutdown_all replicas

(* ---------------- mid-flight replica death ---------------- *)

let test_midflight_death_lands_on_survivors () =
  let replicas = List.init 3 (fun _ -> start_replica ()) in
  let client =
    Orb.create ~transport:"mem" ~host:"local"
      ~retry:{ Orb.Retry.default with max_attempts = 4; base_delay = 0.005 }
      ~breaker:{ Orb.Breaker.default_config with failure_threshold = 1 }
      ()
  in
  let target = multi_ref replicas in
  (* Prime a connection to every replica so the kill hits cached,
     in-use connections, not fresh dials. *)
  for _ = 1 to 12 do
    ignore (get client target)
  done;
  let results = Array.make 8 `Pending in
  let threads =
    Array.init (Array.length results) (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              (match
                 Orb.invoke client target ~op:"slow" (fun _ -> ())
               with
              | Some d -> `Ok (d.Wire.Codec.get_long ())
              | None -> `Err "no reply"
              | exception e -> `Err (Printexc.to_string e)))
          ())
  in
  (* Kill one replica while those calls are in flight. *)
  Thread.delay 0.02;
  let doomed = List.hd replicas in
  Orb.shutdown doomed.orb;
  Array.iter Thread.join threads;
  Array.iteri
    (fun i res ->
      match res with
      | `Ok 7 -> ()
      | `Ok n -> Alcotest.failf "waiter %d: corrupted result %d" i n
      | `Err m -> Alcotest.failf "waiter %d did not land on a survivor: %s" i m
      | `Pending -> Alcotest.failf "waiter %d never finished" i)
    results;
  (* And the cluster keeps serving without the dead replica. *)
  for _ = 1 to 10 do
    Alcotest.(check int) "after death" 7 (get client target)
  done;
  Orb.shutdown client;
  shutdown_all (List.tl replicas)

(* A replica with one worker queues every call but the one it runs.
   Shut down, it refuses the queued calls unexecuted ("dropped before
   execution") and any late ones while draining; both refusals must
   fail over like a send failure, whatever the pool size. *)
let test_queued_calls_on_dying_replica_fail_over () =
  let one_worker =
    {
      Orb.default_server_policy with
      pool = Some { Orb.Pool.default_config with workers = 1 };
    }
  in
  let doomed = start_replica ~server_policy:one_worker () in
  let survivor = start_replica () in
  let client =
    Orb.create ~transport:"mem" ~host:"local"
      ~retry:{ Orb.Retry.default with max_attempts = 4; base_delay = 0.005 }
      ()
  in
  let target = multi_ref [ doomed; survivor ] in
  for _ = 1 to 12 do
    ignore (get client target)
  done;
  (* Staggered starts let power-of-two-choices see the in-flight counts,
     so about half the calls land on the doomed replica: one runs there
     and the rest queue behind it until the shutdown below. *)
  let results = Array.make 12 `Pending in
  let threads =
    Array.init (Array.length results) (fun i ->
        Thread.delay 0.003;
        Thread.create
          (fun () ->
            results.(i) <-
              (match Orb.invoke client target ~op:"slow" (fun _ -> ()) with
              | Some d -> `Ok (d.Wire.Codec.get_long ())
              | None -> `Err "no reply"
              | exception e -> `Err (Printexc.to_string e)))
          ())
  in
  Thread.delay 0.015;
  Orb.shutdown doomed.orb;
  Array.iter Thread.join threads;
  Alcotest.(check bool) "queued calls were refused unexecuted" true
    ((Orb.stats doomed.orb).Orb.rejected > 0);
  Array.iteri
    (fun i res ->
      match res with
      | `Ok 7 -> ()
      | `Ok n -> Alcotest.failf "call %d: corrupted result %d" i n
      | `Err m -> Alcotest.failf "call %d did not fail over: %s" i m
      | `Pending -> Alcotest.failf "call %d never finished" i)
    results;
  Orb.shutdown client;
  Orb.shutdown survivor.orb

(* ---------------- breaker-open endpoints are skipped ---------------- *)

let test_breaker_open_endpoint_skipped () =
  let replicas = List.init 3 (fun _ -> start_replica ()) in
  let client =
    Orb.create ~transport:"mem" ~host:"local"
      ~retry:{ Orb.Retry.default with max_attempts = 4; base_delay = 0.005 }
      ~breaker:
        (* A long cool-down: the circuit must stay open for the whole
           assertion window, no half-open probes muddying the stats. *)
        { Orb.Breaker.failure_threshold = 1; reset_timeout = 60.0 }
      ()
  in
  let target = multi_ref replicas in
  let doomed = List.hd replicas in
  let doomed_key = ep_key doomed in
  Orb.shutdown doomed.orb;
  (* Call until the dead endpoint has been picked once and its breaker
     tripped (power-of-two-choices may dodge it for a while). *)
  let tripped = ref false in
  let budget = ref 100 in
  while (not !tripped) && !budget > 0 do
    decr budget;
    ignore (get client target);
    match List.assoc_opt doomed_key (Orb.stats client).Orb.breaker_states with
    | Some "open" -> tripped := true
    | _ -> ()
  done;
  Alcotest.(check bool) "breaker opened for dead endpoint" true !tripped;
  (* From here on the dead endpoint is invisible to selection: no new
     failovers, no new retries, every call lands first try. *)
  let before = Orb.stats client in
  for _ = 1 to 30 do
    Alcotest.(check int) "steady" 7 (get client target)
  done;
  let after = Orb.stats client in
  Alcotest.(check int) "no failovers once open" before.Orb.failovers
    after.Orb.failovers;
  Alcotest.(check int) "no retries once open" before.Orb.retries
    after.Orb.retries;
  Orb.shutdown client;
  shutdown_all (List.tl replicas)

(* ---------------- at-most-once: ambiguous failures ---------------- *)

let test_ambiguous_failure_never_resent () =
  let replicas = List.init 3 (fun _ -> start_replica ()) in
  let client =
    (* A generous retry budget ON PURPOSE: what must stop the re-send
       is the duplicate-safety taxonomy, not an exhausted budget. *)
    Orb.create ~transport:"mem" ~host:"local"
      ~retry:{ Orb.Retry.default with max_attempts = 5; base_delay = 0.005 }
      ()
  in
  let target = multi_ref replicas in
  (* Prime connections so the timed-out call rides a cached one — the
     most tempting case for a (wrong) resend. *)
  for _ = 1 to 6 do
    ignore (get client target)
  done;
  List.iter (fun rep -> rep.count := 0) replicas;
  (match
     Orb.invoke client target ~op:"bump_slow" ~timeout:0.05 (fun _ -> ())
   with
  | _ -> Alcotest.fail "expected a deadline failure"
  | exception Orb.Transport.Timeout _ -> ()
  | exception e ->
      Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e));
  (* Let the dispatched handler finish, then count dispatches: the
     operation ran at most once, on exactly one replica — an ambiguous
     deadline failure is never re-sent, not even to another replica. *)
  Thread.delay 0.45;
  let total = List.fold_left (fun acc rep -> acc + !(rep.count)) 0 replicas in
  Alcotest.(check int) "dispatched exactly once" 1 total;
  Alcotest.(check int) "no retry burned" 0 (Orb.stats client).Orb.retries;
  Orb.shutdown client;
  shutdown_all replicas

(* ---------------- lease expiry and re-resolution ---------------- *)

let test_lease_expiry_triggers_reresolve () =
  let ns = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start ns;
  let _registry, nref = Orb.Naming.serve ns in
  let replicas = List.init 2 (fun _ -> start_replica ()) in
  let client = Orb.create ~transport:"mem" ~host:"local" () in
  List.iter
    (fun rep ->
      ignore (Orb.Naming.register client nref ~name:"s" rep.r ~ttl:0.3))
    replicas;
  let rs = Orb.Naming.resolver client nref ~name:"s" in
  let t1 = Orb.Naming.current rs in
  Alcotest.(check int) "one resolve" 1 (Orb.Naming.resolves rs);
  Alcotest.(check int) "both endpoints" 2
    (List.length (Orb.Objref.endpoints t1));
  (* Within the lease: served from cache. *)
  ignore (Orb.Naming.current rs);
  ignore (Orb.Naming.current rs);
  Alcotest.(check int) "cached within lease" 1 (Orb.Naming.resolves rs);
  (* Past the lease: the providers renewed meanwhile (that is the
     protocol — registration is renewal), and the client's next use
     goes back to the naming servant instead of its lapsed cache. *)
  Thread.delay 0.4;
  List.iter
    (fun rep ->
      ignore (Orb.Naming.register client nref ~name:"s" rep.r ~ttl:30.))
    replicas;
  ignore (Orb.Naming.current rs);
  Alcotest.(check int) "re-resolved after expiry" 2 (Orb.Naming.resolves rs);
  Orb.shutdown client;
  shutdown_all replicas;
  Orb.shutdown ns

let test_all_replicas_down_triggers_reresolve () =
  let ns = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start ns;
  let _registry, nref = Orb.Naming.serve ns in
  let old_rep = start_replica () in
  let client =
    Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none ()
  in
  ignore (Orb.Naming.register client nref ~name:"s" old_rep.r ~ttl:30.);
  let rs = Orb.Naming.resolver client nref ~name:"s" in
  Alcotest.(check int) "warm call" 7
    (match Orb.Naming.call client rs ~op:"get" (fun _ -> ()) with
    | Some d -> d.Wire.Codec.get_long ()
    | None -> -1);
  (* The registered replica dies and a replacement registers — long
     before the client's cached lease would have lapsed. *)
  Orb.shutdown old_rep.orb;
  Orb.Naming.unregister client nref ~name:"s" old_rep.r;
  let new_rep = start_replica () in
  ignore (Orb.Naming.register client nref ~name:"s" new_rep.r ~ttl:30.);
  (* The failure is duplicate-safe (nothing was dispatched), so the
     call path re-resolves and lands on the replacement. *)
  Alcotest.(check int) "call after re-resolve" 7
    (match Orb.Naming.call client rs ~op:"get" (fun _ -> ()) with
    | Some d -> d.Wire.Codec.get_long ()
    | None -> -1);
  Alcotest.(check int) "resolved twice" 2 (Orb.Naming.resolves rs);
  Alcotest.(check int) "replacement served it" 1 !(new_rep.count);
  Orb.shutdown client;
  Orb.shutdown new_rep.orb;
  Orb.shutdown ns

(* ---------------- location forwarding ---------------- *)

module F = Orb.Transport.Fault

let test_forward_followed_and_cached () =
  let home = start_replica () and away = start_replica () in
  Orb.set_forward home.orb ~oid away.r;
  let client = Orb.create ~transport:"mem" ~host:"local" () in
  Alcotest.(check int) "first call follows the forward" 7 (get client home.r);
  (* The cached forward sends the next call straight to [away]: with
     the old server gone, it still lands. *)
  Orb.shutdown home.orb;
  Alcotest.(check int) "second call skips the old server" 7 (get client home.r);
  Alcotest.(check int) "away served both" 2 !(away.count);
  Alcotest.(check int) "the old server served none" 0 !(home.count);
  Alcotest.(check int) "one forward honoured" 1 (Orb.stats client).Orb.forwards;
  Orb.shutdown client;
  Orb.shutdown away.orb

let test_forward_loop_fails () =
  let a = start_replica () and b = start_replica () in
  Orb.set_forward a.orb ~oid b.r;
  Orb.set_forward b.orb ~oid a.r;
  let client = Orb.create ~transport:"mem" ~host:"local" () in
  (match get client a.r with
  | exception Orb.System_exception m ->
      if not (Tutil.contains m "exceeded 4 hops") then
        Alcotest.failf "unexpected message: %s" m
  | n -> Alcotest.failf "expected the hop cap to fail the call, got %d" n);
  Alcotest.(check int) "no servant ran" 0 (!(a.count) + !(b.count));
  Orb.shutdown client;
  shutdown_all [ a; b ]

let test_forward_ambiguous_failure_not_resent () =
  let home = start_replica () in
  let away = start_replica ~transport:"faulty:mem" () in
  Orb.set_forward home.orb ~oid away.r;
  let client =
    Orb.create ~transport:"mem" ~host:"local"
      ~retry:{ Orb.Retry.default with max_attempts = 5; base_delay = 0.005 }
      ()
  in
  (* [away] cuts every reply short. The request went out on a connection
     the call had just opened, so it may have executed: the failure is
     ambiguous, and the logical target must not see it again. *)
  F.set_plan (fun { F.op; peer; _ } ->
      match op with
      | `Write when Tutil.contains peer "(client)" -> Some (F.Truncate_write 3)
      | _ -> None);
  Fun.protect ~finally:F.clear (fun () ->
      match get client home.r with
      | exception Orb.Transport.Transport_error _ -> ()
      | exception e ->
          Alcotest.failf "expected Transport_error, got %s" (Printexc.to_string e)
      | n -> Alcotest.failf "expected a failure, got %d" n);
  Alcotest.(check int) "the servant ran once, on the forward target" 1
    !(away.count);
  Alcotest.(check int) "never re-sent to the logical target" 0 !(home.count);
  Alcotest.(check int) "no retry" 0 (Orb.stats client).Orb.retries;
  Orb.shutdown client;
  shutdown_all [ home; away ]

(* ---------------- one deadline per call ---------------- *)

(* Three attempts 60 ms apart: 120 ms of backoff before a placement gives
   up, against a 200 ms deadline and a 150 ms servant ("lag"). *)
let lag_retry =
  { Orb.Retry.default with
    max_attempts = 3; base_delay = 0.06; multiplier = 1.; max_delay = 0.06;
    jitter = 0. }

let expect_timeout_within what f =
  let t0 = Unix.gettimeofday () in
  (match f () with
  | _ ->
      Alcotest.failf "%s: expected Timeout, got a reply after %.3fs" what
        (Unix.gettimeofday () -. t0)
  | exception Orb.Transport.Timeout _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Timeout, got %s" what (Printexc.to_string e));
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "%s within the 200 ms deadline (elapsed %.3fs)" what elapsed)
    true (elapsed <= 0.3)

let test_forward_fallback_keeps_deadline () =
  (* The client follows and caches [home]'s forward to [away]; then
     [home] serves the object itself and [away] dies. The fallback to
     [home] runs on what is left of the call's 200 ms, not on a fresh
     200 ms, so the 150 ms servant cannot answer in time. *)
  let home = start_replica () and away = start_replica () in
  Orb.set_forward home.orb ~oid away.r;
  let client = Orb.create ~transport:"mem" ~host:"local" ~retry:lag_retry () in
  Alcotest.(check int) "forward followed" 7 (get client home.r);
  Orb.clear_forward home.orb ~oid;
  Orb.shutdown away.orb;
  expect_timeout_within "forward fallback" (fun () ->
      Orb.invoke client home.r ~op:"lag" ~timeout:0.2 (fun _ -> ()));
  Orb.shutdown client;
  Orb.shutdown home.orb

let test_naming_refresh_keeps_deadline () =
  let ns = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start ns;
  let _registry, nref = Orb.Naming.serve ns in
  let old_rep = start_replica () in
  let client = Orb.create ~transport:"mem" ~host:"local" ~retry:lag_retry () in
  ignore (Orb.Naming.register client nref ~name:"s" old_rep.r ~ttl:30.);
  let rs = Orb.Naming.resolver client nref ~name:"s" in
  ignore (Orb.Naming.call client rs ~op:"get" (fun _ -> ()));
  (* Started before the old replica dies, so it cannot take over the
     old replica's mem port. *)
  let new_rep = start_replica () in
  Orb.shutdown old_rep.orb;
  Orb.Naming.unregister client nref ~name:"s" old_rep.r;
  ignore (Orb.Naming.register client nref ~name:"s" new_rep.r ~ttl:30.);
  (* The re-send to the re-resolved replica shares the call's deadline. *)
  expect_timeout_within "naming re-send" (fun () ->
      Orb.Naming.call client rs ~op:"lag" ~timeout:0.2 (fun _ -> ()));
  Alcotest.(check int) "re-resolved" 2 (Orb.Naming.resolves rs);
  Orb.shutdown client;
  Orb.shutdown new_rep.orb;
  Orb.shutdown ns

let test_naming_resolve_keeps_deadline () =
  (* After the first resolve, the naming servant answers [resolve] 0.5 s
     late, and the resolver has no timeout of its own. The cached
     replica dies, so the call re-resolves: under its own 0.3 s
     deadline, not for as long as the slow servant takes. *)
  let ns = Orb.create ~transport:"mem" ~host:"local" () in
  let resolves = Atomic.make 0 in
  Orb.Interceptor.add (Orb.server_interceptors ns)
    (Orb.Interceptor.make "slow-resolve" ~on_request:(fun req ->
         if req.Orb.Protocol.operation = "resolve" && Atomic.fetch_and_add resolves 1 > 0
         then Thread.delay 0.5;
         req));
  Orb.start ns;
  let _registry, nref = Orb.Naming.serve ns in
  let rep = start_replica () in
  let client = Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none () in
  ignore (Orb.Naming.register client nref ~name:"s" rep.r ~ttl:30.);
  let rs = Orb.Naming.resolver client nref ~name:"s" in
  ignore (Orb.Naming.call client rs ~op:"get" (fun _ -> ()));
  Orb.shutdown rep.orb;
  let t0 = Unix.gettimeofday () in
  (match Orb.Naming.call client rs ~op:"get" ~timeout:0.3 (fun _ -> ()) with
  | exception Orb.Transport.Timeout _ -> ()
  | exception e -> Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Timeout, got a reply");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "re-resolve within the call's deadline (elapsed %.3fs)" elapsed)
    true (elapsed < 0.45);
  Orb.shutdown client;
  Orb.shutdown ns

(* ---------------- old-format interop ---------------- *)

let test_old_format_reference_invokes_unchanged () =
  let rep = start_replica () in
  let client = Orb.create ~transport:"mem" ~host:"local" () in
  (* A pre-replication peer's reference string: single endpoint, no
     comma — parses and invokes exactly as before. *)
  let s = Orb.Objref.to_string rep.r in
  Alcotest.(check bool) "no comma" false (String.contains s ',');
  let parsed = Orb.Objref.of_string s in
  Alcotest.(check int) "invoke via reparsed ref" 7 (get client parsed);
  (* And a multi-endpoint reference narrowed to one replica prints the
     old grammar — what actually travels in every envelope. *)
  let proto, host, port = Orb.Objref.endpoint rep.r in
  let multi =
    Orb.Objref.make_multi
      ~endpoints:[ (proto, host, port); ("tcp", "ghost", 1) ]
      ~oid ~type_id:sensor_type
  in
  Alcotest.(check string) "narrowed view is the old grammar" s
    (Orb.Objref.to_string (Orb.Objref.at_endpoint multi (proto, host, port)));
  Orb.shutdown client;
  Orb.shutdown rep.orb

let () =
  Alcotest.run "failover"
    [
      ( "replication",
        [
          Alcotest.test_case "calls spread over replicas" `Quick
            test_calls_spread_over_replicas;
          Alcotest.test_case "mid-flight death lands on survivors" `Quick
            test_midflight_death_lands_on_survivors;
          Alcotest.test_case "queued calls on a dying replica fail over"
            `Quick test_queued_calls_on_dying_replica_fail_over;
          Alcotest.test_case "breaker-open endpoint skipped" `Quick
            test_breaker_open_endpoint_skipped;
          Alcotest.test_case "ambiguous failure never re-sent" `Quick
            test_ambiguous_failure_never_resent;
        ] );
      ( "naming",
        [
          Alcotest.test_case "lease expiry triggers re-resolve" `Quick
            test_lease_expiry_triggers_reresolve;
          Alcotest.test_case "all replicas down triggers re-resolve" `Quick
            test_all_replicas_down_triggers_reresolve;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "forward followed and cached" `Quick
            test_forward_followed_and_cached;
          Alcotest.test_case "forward loop fails after 4 hops" `Quick
            test_forward_loop_fails;
          Alcotest.test_case "ambiguous failure not re-sent to the logical target"
            `Quick test_forward_ambiguous_failure_not_resent;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "forward fallback keeps the call deadline" `Quick
            test_forward_fallback_keeps_deadline;
          Alcotest.test_case "naming re-send keeps the call deadline" `Quick
            test_naming_refresh_keeps_deadline;
          Alcotest.test_case "naming resolve keeps the deadline" `Quick
            test_naming_resolve_keeps_deadline;
        ] );
      ( "interop",
        [
          Alcotest.test_case "old-format reference invokes unchanged" `Quick
            test_old_format_reference_invokes_unchanged;
        ] );
    ]
