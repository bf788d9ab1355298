(* Multicore dispatch: the guarantees the domain-per-worker pool rests
   on, each pinned where it can actually break.

   - Obs conservation: N domains hammer one Metrics registry while the
     main thread snapshots concurrently — the lock-free registries must
     lose no update and tear no float.
   - Trace ids: one process-wide counter feeds every domain and every
     systhread — ids stay unique across domains and across the threads
     of one domain.
   - Adapter: registrations from two domains while calls dispatch —
     no registration is lost to a concurrent one.
   - Pool overlap: with domain workers, >= 2 jobs must be *executing*
     simultaneously (each job waits to observe the other in flight —
     a rendezvous that deadlocks if execution is serialized).
   - Checker keying: held-rank stacks are keyed by (domain, thread);
     identical Thread.ids on different domains must not merge stacks
     into phantom Rank_violations.
   - Cancel-on-stop: an ORB shutdown with requests queued-but-not-run
     must answer them with a system-error reply, not silent discard. *)

let n_domains = 4

(* ---------------- Obs conservation under domain hammering ------------ *)

let test_metrics_conservation () =
  let m = Obs.Metrics.create () in
  let per_domain = 20_000 in
  let stop_snapshots = Atomic.make false in
  (* Concurrent snapshot reader: every intermediate view must already
     be internally consistent (no negative counts, no torn sums). *)
  let snapshotter =
    Locked.spawn "test.snapshotter" (fun () ->
        while not (Atomic.get stop_snapshots) do
          let s = Obs.Metrics.snapshot m in
          List.iter
            (fun (h : Obs.Metrics.hist_view) ->
              assert (h.total >= 0);
              assert (Float.is_finite h.sum_s && h.sum_s >= 0.))
            s.Obs.Metrics.latencies;
          Thread.yield ()
        done)
  in
  let workers =
    List.init n_domains (fun d ->
        Locked.spawn_domain "test.hammer" (fun () ->
            for i = 1 to per_domain do
              Obs.Metrics.observe m ~name:"lat" 0.001;
              Obs.Metrics.incr m ~name:"evt";
              Obs.Metrics.add_bytes m ~endpoint:"ep" ~dir:`In 3;
              if i land 1023 = 0 then
                Obs.Metrics.set_gauge m ~name:"g" (float_of_int d)
            done))
  in
  List.iter Domain.join workers;
  Atomic.set stop_snapshots true;
  Thread.join snapshotter;
  let s = Obs.Metrics.snapshot m in
  let expected = n_domains * per_domain in
  (match s.Obs.Metrics.latencies with
  | [ h ] ->
      Alcotest.(check int) "histogram total conserved" expected h.total;
      Alcotest.(check int)
        "bucket counts sum to total" expected
        (List.fold_left (fun a (_, c) -> a + c) 0 h.buckets);
      (* sum_s accumulates 0.001 per observation via compare-and-set:
         no update may be lost, only float rounding may drift. *)
      let want = float_of_int expected *. 0.001 in
      Alcotest.(check bool)
        (Printf.sprintf "sum_s conserved (%.6f vs %.6f)" h.sum_s want)
        true
        (Float.abs (h.sum_s -. want) < want *. 1e-6)
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l));
  Alcotest.(check (list (pair string int)))
    "counter conserved"
    [ ("evt", expected) ]
    s.Obs.Metrics.counters;
  match s.Obs.Metrics.endpoints with
  | [ b ] ->
      Alcotest.(check int) "bytes conserved" (3 * expected) b.bytes_in;
      Alcotest.(check int) "reads conserved" expected b.reads
  | l -> Alcotest.failf "expected 1 endpoint, got %d" (List.length l)

(* ---------------- trace ids unique across domains ------------------- *)

let test_trace_ids_unique_across_domains () =
  let per_domain = 5_000 in
  let results = Array.make n_domains [] in
  let workers =
    List.init n_domains (fun d ->
        Locked.spawn_domain "test.ids" (fun () ->
            let mine = ref [] in
            for _ = 1 to per_domain do
              mine := Obs.Trace.new_trace_id () :: !mine
            done;
            results.(d) <- !mine))
  in
  List.iter Domain.join workers;
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "every domain produced its ids"
    (n_domains * per_domain) (List.length all);
  Alcotest.(check int) "no id drawn twice across domains"
    (List.length all)
    (List.length (List.sort_uniq compare all))

let test_trace_ids_unique_across_threads () =
  (* Systhreads of one worker domain draw side by side with other
     domains: no id may repeat. *)
  let per_drawer = 5_000 and threads = 4 in
  let draw () = List.init per_drawer (fun _ -> Obs.Trace.new_trace_id ()) in
  let results = Array.make (threads + n_domains) [] in
  let threaded =
    Locked.spawn_domain "test.ids.threads" (fun () ->
        List.init threads (fun i ->
            Locked.spawn "test.ids.thread" (fun () -> results.(i) <- draw ()))
        |> List.iter Thread.join)
  in
  let domains =
    List.init n_domains (fun d ->
        Locked.spawn_domain "test.ids" (fun () ->
            results.(threads + d) <- draw ()))
  in
  List.iter Domain.join (threaded :: domains);
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "every drawer produced its ids"
    ((threads + n_domains) * per_drawer)
    (List.length all);
  Alcotest.(check int) "no id drawn twice" (List.length all)
    (List.length (List.sort_uniq compare all))

(* ---------------- adapter: registrations under dispatch ------------- *)

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:"IDL:Test/Echo:1.0"
    [
      ( "echo",
        fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ())
      );
    ]

let test_adapter_registrations_under_dispatch () =
  (* Two domains register 1,000 oids each while the main domain calls
     the ones already registered (the server dispatches on its worker
     domains). Every registration must survive the other domain's. *)
  let per_domain = 1_000 in
  let server = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start server;
  let client = Orb.create ~transport:"mem" ~host:"local" () in
  let oid d i = Printf.sprintf "d%d-%d" d i in
  let target o =
    Orb.Objref.make ~proto:"mem" ~host:"local" ~port:(Orb.port server) ~oid:o
      ~type_id:"IDL:Test/Echo:1.0"
  in
  let registered = Array.init 2 (fun _ -> Atomic.make 0) in
  let calls = Atomic.make 0 in
  (* Every 100 registrations an exporter lets a few calls through, so
     calls and registrations interleave however fast either side is. *)
  let let_calls_through i =
    let deadline = Unix.gettimeofday () +. 10. in
    while Atomic.get calls < i / 50 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done
  in
  let exporters =
    List.init 2 (fun d ->
        Locked.spawn_domain "test.exporter" (fun () ->
            for i = 0 to per_domain - 1 do
              if i mod 100 = 0 then let_calls_through i;
              ignore (Orb.export_named server ~oid:(oid d i) (echo_skeleton ()));
              Atomic.incr registered.(d)
            done))
  in
  let round = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () ->
      let rec dispatch () =
        let done_ = Array.map Atomic.get registered in
        let d = !round land 1 in
        incr round;
        if done_.(d) > 0 then begin
          let o = oid d (Random.int done_.(d)) in
          (match
             Orb.invoke client (target o) ~op:"echo" (fun e ->
                 e.Wire.Codec.put_string o)
           with
          | Some r ->
              Alcotest.(check string) ("reply from " ^ o) ("echo:" ^ o)
                (r.Wire.Codec.get_string ())
          | None -> Alcotest.fail "expected a reply");
          Atomic.incr calls
        end;
        if Array.exists (fun n -> n < per_domain) done_ then dispatch ()
      in
      dispatch ();
      List.iter Domain.join exporters;
      let adapter = Orb.adapter server in
      Alcotest.(check int) "every oid registered" (2 * per_domain)
        (Orb.Object_adapter.count adapter);
      for d = 0 to 1 do
        for i = 0 to per_domain - 1 do
          if Orb.Object_adapter.lookup adapter (oid d i) = None then
            Alcotest.failf "oid %s lost" (oid d i)
        done
      done;
      Alcotest.(check bool) "calls dispatched meanwhile" true
        (Atomic.get calls >= (per_domain - 1) / 50))

(* ---------------- pool: parallel execution rendezvous --------------- *)

let test_pool_jobs_overlap () =
  let pool =
    Orb.Pool.create
      { Orb.Pool.default_config with workers = 2; queue_capacity = 8 }
  in
  let arrived = Atomic.make 0 in
  let saw_both = Atomic.make 0 in
  let finished = Atomic.make 0 in
  let job () =
    Atomic.incr arrived;
    (* Rendezvous: wait (bounded) until the other job has also started.
       [arrived] only grows, so if the partner shows up while this job
       is mid-run, BOTH observe 2. Serialized execution can score at
       most 1: the first job spins out its deadline alone and is done
       before the second ever increments. *)
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    if Atomic.get arrived >= 2 then Atomic.incr saw_both;
    Atomic.incr finished
  in
  (match Orb.Pool.submit pool job with
  | `Accepted -> ()
  | `Rejected r -> Alcotest.failf "job 1 rejected: %s" r
  | `Expired -> Alcotest.fail "job 1 unexpectedly expired");
  (match Orb.Pool.submit pool job with
  | `Accepted -> ()
  | `Rejected r -> Alcotest.failf "job 2 rejected: %s" r
  | `Expired -> Alcotest.fail "job 2 unexpectedly expired");
  (* Each job's own side effect, then the pool idle. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (Atomic.get finished < 2 || Orb.Pool.active pool > 0 || Orb.Pool.depth pool > 0)
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.005
  done;
  Alcotest.(check int) "both jobs completed" 2 (Atomic.get finished);
  Alcotest.(check int) "both jobs observed each other executing" 2
    (Atomic.get saw_both);
  ignore (Orb.Pool.stop pool)

(* ---------------- checker: (domain, thread) keying ------------------ *)

let with_checking f =
  let was = Locked.checking () in
  Locked.set_checking true;
  Locked.reset_violations ();
  Fun.protect
    ~finally:(fun () ->
      Locked.reset_violations ();
      Locked.set_checking was)
    f

let test_checker_no_phantom_across_domains () =
  (* Each domain runs the same descending acquisition pattern in a
     tight loop. Under per-Thread.id keying, thread ids recycle across
     domains, so two domains' stacks could interleave into a phantom
     climb; (domain, thread) keying must keep them disjoint. *)
  with_checking (fun () ->
      let outer = Locked.create ~name:"mc.outer" ~rank:Locked.Rank.pool in
      let workers =
        List.init n_domains (fun _ ->
            Locked.spawn_domain "test.ranked" (fun () ->
                let inner =
                  Locked.create ~name:"mc.inner" ~rank:Locked.Rank.metrics
                in
                for _ = 1 to 2_000 do
                  Locked.with_lock outer (fun () ->
                      Locked.with_lock inner (fun () -> ()))
                done))
      in
      List.iter Domain.join workers;
      Alcotest.(check (list string))
        "no phantom violations across domains" [] (Locked.violations ());
      (* The checker still catches a real inversion on a worker domain. *)
      let tripped = Atomic.make false in
      let inner = Locked.create ~name:"mc.trip" ~rank:Locked.Rank.metrics in
      Domain.join
        (Locked.spawn_domain "test.inversion" (fun () ->
             try Locked.with_lock inner (fun () ->
                     Locked.with_lock outer (fun () -> ()))
             with Locked.Rank_violation _ -> Atomic.set tripped true));
      Alcotest.(check bool) "real inversion still trips on a domain" true
        (Atomic.get tripped))

(* ---------------- ORB: stop answers queued requests ----------------- *)

let slow_skeleton gate_s =
  Orb.Skeleton.create ~type_id:"IDL:Test/Slow:1.0"
    [
      ( "slow",
        fun _ results ->
          Thread.delay gate_s;
          results.Wire.Codec.put_bool true );
    ]

let test_shutdown_answers_queued_requests () =
  (* 1 worker, deep queue: the first call occupies the worker, the rest
     sit queued-but-not-run. Shutting the server down mid-flight must
     answer every queued request with a system-error reply naming the
     drop — before the fix they were silently discarded and the client
     sat out its call deadline. *)
  Orb.Transport.mem_reset ();
  let server =
    Orb.create ~transport:"mem" ~host:"local"
      ~server_policy:
        {
          Orb.default_server_policy with
          pool =
            Some
              {
                Orb.Pool.default_config with
                workers = 1;
                queue_capacity = 8;
              };
        }
      ()
  in
  Orb.start server;
  let target = Orb.export server (slow_skeleton 0.6) in
  let client = Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none () in
  let outcomes = Array.make 3 `Pending in
  let threads =
    List.init 3 (fun i ->
        Locked.spawn "test.caller" (fun () ->
            (* Caller 0 occupies the worker; 1 and 2 queue behind it. *)
            if i > 0 then Thread.delay 0.1;
            outcomes.(i) <-
              (match
                 Orb.invoke client target ~op:"slow" ~timeout:20.0 (fun _ -> ())
               with
              | Some _ -> `Replied
              | None -> `NoReply
              | exception Orb.System_exception msg -> `System_error msg
              | exception e -> `Other (Printexc.to_string e))))
  in
  Thread.delay 0.25;
  let t0 = Unix.gettimeofday () in
  Orb.shutdown server;
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "queued callers answered promptly (%.2fs)" elapsed)
    true (elapsed < 5.0);
  (* Callers 1 and 2 were queued when the pool stopped: each must have
     received the cancel reply, not a timeout or a bare hangup. *)
  List.iter
    (fun i ->
      match outcomes.(i) with
      | `System_error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "caller %d told about the drop (%s)" i msg)
            true
            (Tutil.contains msg "dropped" || Tutil.contains msg "shutting down")
      | `Replied -> Alcotest.failf "caller %d got a reply after the drop" i
      | `NoReply -> Alcotest.failf "caller %d got a oneway-style no-reply" i
      | `Other e -> Alcotest.failf "caller %d failed oddly: %s" i e
      | `Pending -> Alcotest.failf "caller %d never finished" i)
    [ 1; 2 ];
  Orb.shutdown client

let () =
  Alcotest.run "multicore"
    [
      ( "obs",
        [
          Alcotest.test_case "metrics conserved under domains" `Quick
            test_metrics_conservation;
          Alcotest.test_case "trace ids unique across domains" `Quick
            test_trace_ids_unique_across_domains;
          Alcotest.test_case "trace ids unique across threads and domains"
            `Quick test_trace_ids_unique_across_threads;
        ] );
      ( "adapter",
        [
          Alcotest.test_case "registrations from two domains under dispatch"
            `Quick test_adapter_registrations_under_dispatch;
        ] );
      ( "pool",
        [
          Alcotest.test_case "jobs execute in parallel" `Quick
            test_pool_jobs_overlap;
          Alcotest.test_case "shutdown answers queued requests" `Quick
            test_shutdown_answers_queued_requests;
        ] );
      ( "checker",
        [
          Alcotest.test_case "(domain, thread) keying: no phantoms" `Quick
            test_checker_no_phantom_across_domains;
        ] );
    ]
