(* Server-hardening tests: the bounded worker pool and its admission
   policies, per-connection pipelining caps, idle-LRU connection
   eviction, graceful drain, and the overload soak with conservation
   accounting (every request is served, rejected or provably never
   dispatched — none vanish). *)

module F = Orb.Transport.Fault

let echo_type = "IDL:Test/Echo:1.0"

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ()));
      ("sleepy", fun args results ->
          Thread.delay (float_of_int (args.Wire.Codec.get_long ()) /. 1000.);
          results.Wire.Codec.put_bool true);
    ]

(* Poll until [cond] holds, failing after [timeout] seconds — the
   systhreads idiom for "eventually", same as the transport's deadline
   polling. *)
let eventually ?(timeout = 5.0) ?(msg = "condition") cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    if cond () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Thread.delay 0.005;
      wait ()
    end
  in
  wait ()

(* A gate a job can block on until the test opens it. *)
let make_gate () =
  let m = Mutex.create () in
  let opened = ref false in
  let wait () =
    let rec go () =
      Mutex.lock m;
      let o = !opened in
      Mutex.unlock m;
      if not o then begin
        Thread.delay 0.002;
        go ()
      end
    in
    go ()
  in
  let release () =
    Mutex.lock m;
    opened := true;
    Mutex.unlock m
  in
  (wait, release)

(* ---------------- pool unit tests ---------------- *)

let test_pool_runs_jobs () =
  let pool =
    Orb.Pool.create
      (* Capacity >= job count: nothing may be shed even if the workers
         have not started draining when the last submit lands. *)
      { Orb.Pool.default_config with workers = 3; queue_capacity = 32 }
  in
  let done_ = Atomic.make 0 in
  for _ = 1 to 20 do
    match Orb.Pool.submit pool (fun () -> Atomic.incr done_) with
    | `Accepted -> ()
    | `Rejected r -> Alcotest.failf "unexpected rejection: %s" r
    | `Expired -> Alcotest.fail "unexpected expiry"
  done;
  (* A worker counts a job as completed after the job returns: wait for
     the pool's own count, not just the jobs' side effect. *)
  eventually ~msg:"20 jobs completed" (fun () ->
      Atomic.get done_ = 20 && (Orb.Pool.stats pool).Orb.Pool.completed = 20);
  let s = Orb.Pool.stats pool in
  Alcotest.(check int) "submitted" 20 s.Orb.Pool.submitted;
  Alcotest.(check int) "completed" 20 s.Orb.Pool.completed;
  Alcotest.(check int) "rejected" 0 s.Orb.Pool.rejected;
  Alcotest.(check int) "queue empty" 0 (Orb.Pool.depth pool);
  ignore (Orb.Pool.stop pool)

let test_pool_rejects_when_full () =
  let pool =
    Orb.Pool.create
      { Orb.Pool.default_config with workers = 1; queue_capacity = 1 }
  in
  let wait, release = make_gate () in
  (* Occupy the single worker, then the single queue slot. *)
  (match Orb.Pool.submit pool wait with
  | `Accepted -> ()
  | `Rejected r -> Alcotest.failf "worker job rejected: %s" r
  | `Expired -> Alcotest.fail "worker job unexpectedly expired");
  eventually ~msg:"worker busy" (fun () -> Orb.Pool.active pool = 1);
  (match Orb.Pool.submit pool wait with
  | `Accepted -> ()
  | `Rejected r -> Alcotest.failf "queued job rejected: %s" r
  | `Expired -> Alcotest.fail "queued job unexpectedly expired");
  (* Third job: queue is full, Reject admission fails immediately. *)
  (match Orb.Pool.submit pool (fun () -> ()) with
  | `Accepted -> Alcotest.fail "expected rejection on a full queue"
  | `Expired -> Alcotest.fail "expected rejection, got expiry"
  | `Rejected reason ->
      Alcotest.(check bool) "reason names overload" true
        (Tutil.contains reason "overloaded"));
  release ();
  eventually ~msg:"jobs drained" (fun () ->
      (Orb.Pool.stats pool).Orb.Pool.completed = 2);
  ignore (Orb.Pool.stop pool)

let test_pool_block_admission_deadline () =
  let pool =
    Orb.Pool.create
      {
        Orb.Pool.default_config with
        workers = 1;
        queue_capacity = 1;
        admission = Orb.Pool.Block (Some 0.08);
      }
  in
  let wait, release = make_gate () in
  ignore (Orb.Pool.submit pool wait);
  eventually ~msg:"worker busy" (fun () -> Orb.Pool.active pool = 1);
  ignore (Orb.Pool.submit pool wait);
  (* Queue full and the worker never frees it: the blocking submit must
     give up at its deadline, not hang. *)
  let t0 = Unix.gettimeofday () in
  (match Orb.Pool.submit pool (fun () -> ()) with
  | `Accepted -> Alcotest.fail "expected deadline rejection"
  | `Expired -> Alcotest.fail "expected deadline rejection, got expiry"
  | `Rejected reason ->
      Alcotest.(check bool) "reason names the deadline" true
        (Tutil.contains reason "deadline"));
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "blocked about the deadline (%.3fs)" waited)
    true
    (waited >= 0.07 && waited < 1.0);
  (* And when space DOES free, a blocking submit goes through. *)
  let accepted = ref false in
  let t =
    Thread.create
      (fun () ->
        match Orb.Pool.submit pool (fun () -> ()) with
        | `Accepted -> accepted := true
        | `Rejected _ | `Expired -> ())
      ()
  in
  Thread.delay 0.02;
  release ();
  Thread.join t;
  Alcotest.(check bool) "unblocked submit accepted" true !accepted;
  eventually ~msg:"all done" (fun () ->
      Orb.Pool.depth pool = 0 && Orb.Pool.active pool = 0);
  ignore (Orb.Pool.stop pool)

let test_pool_drain () =
  (* Clean drain: everything in flight finishes, then submits fail. *)
  let pool =
    Orb.Pool.create
      { Orb.Pool.default_config with workers = 2; queue_capacity = 8 }
  in
  let done_ = Atomic.make 0 in
  for _ = 1 to 6 do
    ignore
      (Orb.Pool.submit pool (fun () ->
           Thread.delay 0.01;
           Atomic.incr done_))
  done;
  (match Orb.Pool.drain pool ~deadline:(Some (Unix.gettimeofday () +. 5.0)) with
  | `Drained -> ()
  | `Aborted n -> Alcotest.failf "drain aborted with %d jobs left" n);
  Alcotest.(check int) "all jobs ran before drain returned" 6 (Atomic.get done_);
  (match Orb.Pool.submit pool (fun () -> ()) with
  | `Accepted -> Alcotest.fail "draining pool accepted a job"
  | `Expired -> Alcotest.fail "draining pool reported expiry"
  | `Rejected reason ->
      Alcotest.(check bool) "reason names draining" true
        (Tutil.contains reason "draining"));
  ignore (Orb.Pool.stop pool);
  (* Aborted drain: a stuck job forces the deadline path. *)
  let pool =
    Orb.Pool.create
      { Orb.Pool.default_config with workers = 1; queue_capacity = 4 }
  in
  let wait, release = make_gate () in
  ignore (Orb.Pool.submit pool wait);
  eventually ~msg:"worker busy" (fun () -> Orb.Pool.active pool = 1);
  ignore (Orb.Pool.submit pool (fun () -> ()));
  (match Orb.Pool.drain pool ~deadline:(Some (Unix.gettimeofday () +. 0.05)) with
  | `Drained -> Alcotest.fail "drain with a stuck job reported clean"
  | `Aborted n -> Alcotest.(check int) "stuck + queued abandoned" 2 n);
  release ();
  ignore (Orb.Pool.stop pool)

(* ---------------- default sizing ---------------- *)

let test_default_workers_follow_host () =
  Alcotest.(check int) "one worker per core, 2 to 8"
    (min 8 (max 2 (Domain.recommended_domain_count ())))
    Orb.Pool.default_config.Orb.Pool.workers;
  Alcotest.(check bool) "default server policy uses it" true
    (Orb.default_server_policy.Orb.pool = Some Orb.Pool.default_config)

(* The reason for the floor of 2: a servant that calls another servant
   on its own ORB holds one worker while the nested call needs a
   second. With one worker the nested call would queue behind its
   caller until its timeout. *)
let test_default_policy_serves_nested_call () =
  let server = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start server;
  let inner = Orb.export server (echo_skeleton ()) in
  let relay =
    Orb.Skeleton.create ~type_id:"IDL:Test/Relay:1.0"
      [
        ( "relay",
          fun args results ->
            let s = args.Wire.Codec.get_string () in
            match
              Orb.invoke server inner ~op:"echo" ~timeout:5.0 (fun e ->
                  e.Wire.Codec.put_string s)
            with
            | Some d -> results.Wire.Codec.put_string (d.Wire.Codec.get_string ())
            | None -> failwith "nested call returned no reply" );
      ]
  in
  let outer = Orb.export server relay in
  let client = Orb.create ~transport:"mem" ~host:"local" () in
  let t0 = Unix.gettimeofday () in
  (match
     Orb.invoke client outer ~op:"relay" ~timeout:5.0 (fun e ->
         e.Wire.Codec.put_string "hi")
   with
  | Some d ->
      Alcotest.(check string) "nested reply" "echo:hi" (d.Wire.Codec.get_string ())
  | None -> Alcotest.fail "relay returned no reply");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "well inside the timeout (%.3fs)" elapsed)
    true (elapsed < 1.0);
  Orb.shutdown client;
  Orb.shutdown server

(* ------------- ORB-level: overload, pipelining, eviction ------------- *)

let tiny_pool =
  { Orb.Pool.default_config with workers = 1; queue_capacity = 1 }

let test_overload_rejects_with_system_exception () =
  (* 8 single-call clients against 1 worker + 1 queue slot of 150 ms
     work: some calls must be shed, every shed call must surface as a
     diagnosable System_exception naming the overload, and nothing may
     hang. *)
  let server =
    Orb.create ~transport:"mem" ~host:"local"
      ~server_policy:{ Orb.default_server_policy with pool = Some tiny_pool }
      ()
  in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let n = 8 in
  let ok = Atomic.make 0 and shed = Atomic.make 0 and other = Atomic.make 0 in
  let clients =
    List.init n (fun _ ->
        Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none ())
  in
  let threads =
    List.map
      (fun client ->
        Thread.create
          (fun () ->
            match
              Orb.invoke client target ~op:"sleepy" (fun e ->
                  e.Wire.Codec.put_long 150)
            with
            | Some _ -> Atomic.incr ok
            | None -> Atomic.incr other
            | exception Orb.System_exception m
              when Tutil.contains m "overloaded" ->
                Atomic.incr shed
            | exception _ -> Atomic.incr other)
          ())
      clients
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "every call got an outcome" n
    (Atomic.get ok + Atomic.get shed + Atomic.get other);
  Alcotest.(check int) "no transport failures or hangs" 0 (Atomic.get other);
  (* At least the request the worker is executing completes; whether
     the queue slot was filled before the worker popped the first job
     is a scheduling race, so only >= 1 is deterministic. *)
  Alcotest.(check bool) "some calls served" true (Atomic.get ok >= 1);
  Alcotest.(check bool) "some calls shed" true (Atomic.get shed >= 1);
  let st = Orb.stats server in
  Alcotest.(check int) "server counted the shed calls" (Atomic.get shed)
    st.Orb.rejected;
  Alcotest.(check int) "served + rejected = total" n
    (st.Orb.served + st.Orb.rejected);
  List.iter Orb.shutdown clients;
  Orb.shutdown server

let test_pipelining_cap () =
  (* A client that floods one connection with back-to-back requests
     past [max_pipelined] gets the excess rejected (not silently
     dropped, not crashing the reader), while the admitted ones still
     complete. Raw communicator, because Orb.invoke is strictly
     call-reply per connection. *)
  let server =
    Orb.create ~transport:"mem" ~host:"local"
      ~server_policy:{ Orb.default_server_policy with max_pipelined = 2 }
      ()
  in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let chan =
    Orb.Transport.connect ~proto:"mem" ~host:"local" ~port:(Orb.port server)
  in
  let comm = Orb.Communicator.wrap Orb.Protocol.text chan in
  let payload =
    let e = Orb.Protocol.text.Orb.Protocol.codec.Wire.Codec.encoder () in
    e.Wire.Codec.put_long 120;
    e.Wire.Codec.finish ()
  in
  let total = 5 in
  for req_id = 1 to total do
    Orb.Communicator.send comm
      (Orb.Protocol.Request
         {
           req_id;
           target;
           operation = "sleepy";
           oneway = false;
           payload;
           trace_ctx = "";
           budget_us = None;
           nego_offer = "";
         })
  done;
  let ok = ref 0 and capped = ref 0 in
  Tutil.with_watchdog ~seconds:5.0 ~what:"pipelined replies"
    ~on_expiry:(fun () -> Orb.Communicator.close comm)
    (fun () ->
      for _ = 1 to total do
        match Orb.Communicator.recv comm with
        | Orb.Protocol.Reply { status = Orb.Protocol.Status_ok; _ } -> incr ok
        | Orb.Protocol.Reply { status = Orb.Protocol.Status_system_error m; _ }
          when Tutil.contains m "pipelined" ->
            incr capped
        | Orb.Protocol.Reply { status; _ } ->
            Alcotest.failf "unexpected reply status %s"
              (Orb.Protocol.status_to_string status)
        | _ -> Alcotest.fail "unexpected non-reply message"
      done);
  Alcotest.(check int) "all requests answered" total (!ok + !capped);
  Alcotest.(check bool) "admitted up to the cap" true (!ok >= 2);
  Alcotest.(check bool) "excess rejected" true (!capped >= 1);
  Orb.Communicator.close comm;
  Orb.shutdown server

let test_idle_lru_eviction () =
  let server =
    Orb.create ~transport:"mem" ~host:"local"
      ~server_policy:{ Orb.default_server_policy with max_connections = 2 }
      ()
  in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let invoke client s =
    match
      Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_string s)
    with
    | Some d -> d.Wire.Codec.get_string ()
    | None -> Alcotest.fail "expected a reply"
  in
  let a = Orb.create ~transport:"mem" ~host:"local" () in
  let b = Orb.create ~transport:"mem" ~host:"local" () in
  let c = Orb.create ~transport:"mem" ~host:"local" () in
  Alcotest.(check string) "a" "echo:a" (invoke a "a");
  Thread.delay 0.02 (* make a's connection measurably the stalest *);
  Alcotest.(check string) "b" "echo:b" (invoke b "b");
  Thread.delay 0.02;
  (* Third connection crosses max_connections: a's idle connection is
     evicted at accept time. *)
  Alcotest.(check string) "c" "echo:c" (invoke c "c");
  eventually ~msg:"eviction recorded" (fun () ->
      (Orb.stats server).Orb.evicted = 1);
  eventually ~msg:"gauge back under the limit" (fun () ->
      (Orb.stats server).Orb.server_connections <= 2);
  (* The evicted client notices its cached connection is gone and
     transparently reconnects (stale-connection retry) — eviction is
     invisible at the call level. *)
  Alcotest.(check string) "a reconnects" "echo:again" (invoke a "again");
  Alcotest.(check int) "a opened a second connection" 2
    (Orb.connections_opened a);
  List.iter Orb.shutdown [ a; b; c ];
  Orb.shutdown server

(* ---------------- graceful drain ---------------- *)

let test_graceful_drain_completes_inflight () =
  let server = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let client =
    Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none ()
  in
  let result = ref `Pending in
  let t =
    Thread.create
      (fun () ->
        result :=
          match
            Orb.invoke client target ~op:"sleepy" (fun e ->
                e.Wire.Codec.put_long 250)
          with
          | Some d -> if d.Wire.Codec.get_bool () then `Ok else `Bad
          | None -> `Bad
          | exception e -> `Exn (Printexc.to_string e))
      ()
  in
  (* Let the call reach the worker, then shut down with a grace window
     longer than the remaining work: the reply must still be delivered. *)
  Thread.delay 0.08;
  Orb.shutdown ~drain_deadline:3.0 server;
  Thread.join t;
  (match !result with
  | `Ok -> ()
  | `Pending -> Alcotest.fail "call never finished"
  | `Bad -> Alcotest.fail "call lost its reply during drain"
  | `Exn m -> Alcotest.failf "in-flight call failed during drain: %s" m);
  let st = Orb.stats server in
  Alcotest.(check int) "drain counted clean" 1 st.Orb.drains_clean;
  Alcotest.(check int) "nothing abandoned" 0 st.Orb.drain_aborted_jobs;
  Orb.shutdown client

let test_drain_deadline_aborts () =
  let server = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let client =
    Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none ()
  in
  let outcome = ref `Pending in
  let t =
    Thread.create
      (fun () ->
        outcome :=
          match
            Orb.invoke client target ~op:"sleepy" (fun e ->
                e.Wire.Codec.put_long 1500)
          with
          | Some _ -> `Ok
          | None -> `Ok
          | exception _ -> `Failed)
      ()
  in
  Thread.delay 0.08;
  (* Grace window far shorter than the in-flight work: the drain must
     give up at its deadline (not wait the full 1.5 s) and account for
     the abandoned dispatch. *)
  let t0 = Unix.gettimeofday () in
  Orb.shutdown ~drain_deadline:0.1 server;
  let took = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "shutdown bounded by the deadline (%.3fs)" took)
    true (took < 1.0);
  let st = Orb.stats server in
  Alcotest.(check int) "no clean drain" 0 st.Orb.drains_clean;
  Alcotest.(check bool) "abandoned work accounted" true
    (st.Orb.drain_aborted_jobs >= 1);
  Thread.join t;
  (match !outcome with
  | `Failed -> ()
  | `Ok -> Alcotest.fail "call survived a force-close it should not have"
  | `Pending -> Alcotest.fail "call never finished");
  Orb.shutdown client

let test_draining_rejects_new_requests () =
  (* While a drain is in progress, a new request on an existing
     connection is answered with a "draining" system exception. *)
  let server = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let client =
    Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none ()
  in
  (match
     Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_string "warm")
   with
  | Some _ -> ()
  | None -> Alcotest.fail "warm-up call failed");
  (* Hold the drain open with a slow call so the window is observable. *)
  let holder =
    Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none ()
  in
  let t =
    Thread.create
      (fun () ->
        try
          ignore
            (Orb.invoke holder target ~op:"sleepy" (fun e ->
                 e.Wire.Codec.put_long 400))
        with _ -> ())
      ()
  in
  Thread.delay 0.08;
  let shut =
    Thread.create (fun () -> Orb.shutdown ~drain_deadline:3.0 server) ()
  in
  Thread.delay 0.08;
  (match
     Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_string "late")
   with
  | Some _ -> Alcotest.fail "request during drain was served"
  | None -> Alcotest.fail "request during drain returned no reply"
  | exception Orb.System_exception m ->
      Alcotest.(check bool) "reason names draining" true
        (Tutil.contains m "draining")
  | exception e ->
      Alcotest.failf "expected a draining System_exception, got %s"
        (Printexc.to_string e));
  Thread.join t;
  Thread.join shut;
  List.iter Orb.shutdown [ client; holder ]

(* ---------------- deadline budgets ---------------- *)

(* A servant with a tripwire: executing "mark" proves the server ran
   zombie work. Expired requests must never reach it. *)
let probe_skeleton ran =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("sleepy", fun args results ->
          Thread.delay (float_of_int (args.Wire.Codec.get_long ()) /. 1000.);
          results.Wire.Codec.put_bool true);
      ("mark", fun _ results ->
          Atomic.set ran true;
          results.Wire.Codec.put_bool true);
    ]

let send_raw comm ~req_id ~target ~op ?budget_us payload =
  Orb.Communicator.send comm
    (Orb.Protocol.Request
       {
         req_id;
         target;
         operation = op;
         oneway = false;
         payload;
         trace_ctx = "";
         budget_us;
         nego_offer = "";
       })

let sleepy_payload ms =
  let e = Orb.Protocol.text.Orb.Protocol.codec.Wire.Codec.encoder () in
  e.Wire.Codec.put_long ms;
  e.Wire.Codec.finish ()

let test_budget_expires_in_queue () =
  (* The zombie-work kill: a queued request whose budget lapses while a
     slow job holds the single worker is answered "expired in queue" —
     and its servant provably never runs. *)
  let ran = Atomic.make false in
  let server =
    Orb.create ~transport:"mem" ~host:"local"
      ~server_policy:{ Orb.default_server_policy with pool = Some tiny_pool }
      ()
  in
  Orb.start server;
  let target = Orb.export server (probe_skeleton ran) in
  let chan =
    Orb.Transport.connect ~proto:"mem" ~host:"local" ~port:(Orb.port server)
  in
  let comm = Orb.Communicator.wrap Orb.Protocol.text chan in
  send_raw comm ~req_id:1 ~target ~op:"sleepy" (sleepy_payload 200);
  (* Let the worker pick up the sleeper, then queue the doomed call:
     50 ms of budget against 200 ms of queue wait. *)
  Thread.delay 0.05;
  send_raw comm ~req_id:2 ~target ~op:"mark" ~budget_us:50_000 "";
  let got_ok = ref 0 and got_expired = ref 0 in
  Tutil.with_watchdog ~seconds:5.0 ~what:"sleeper and expired replies"
    ~on_expiry:(fun () -> Orb.Communicator.close comm)
    (fun () ->
      for _ = 1 to 2 do
        match Orb.Communicator.recv comm with
        | Orb.Protocol.Reply { rep_id = 1; status = Orb.Protocol.Status_ok; _ } ->
            incr got_ok
        | Orb.Protocol.Reply
            { rep_id = 2; status = Orb.Protocol.Status_system_error m; _ }
          when Tutil.contains m "expired in queue" ->
            incr got_expired
        | Orb.Protocol.Reply { rep_id; status; _ } ->
            Alcotest.failf "unexpected reply %d: %s" rep_id
              (Orb.Protocol.status_to_string status)
        | _ -> Alcotest.fail "unexpected non-reply message"
      done);
  Alcotest.(check int) "sleeper answered" 1 !got_ok;
  Alcotest.(check int) "doomed call answered expired" 1 !got_expired;
  Alcotest.(check bool) "servant never ran the expired request" false
    (Atomic.get ran);
  let st = Orb.stats server in
  Alcotest.(check int) "expired_in_queue counted" 1 st.Orb.expired_in_queue;
  Alcotest.(check int) "not conflated with overload" 0 st.Orb.rejected;
  Orb.Communicator.close comm;
  Orb.shutdown server

let test_budget_expired_pre_admission () =
  (* A request arriving with zero budget is shed at decode: answered
     before any pool interaction, counted separately from overload. *)
  let ran = Atomic.make false in
  let server = Orb.create ~transport:"mem" ~host:"local" () in
  Orb.start server;
  let target = Orb.export server (probe_skeleton ran) in
  let chan =
    Orb.Transport.connect ~proto:"mem" ~host:"local" ~port:(Orb.port server)
  in
  let comm = Orb.Communicator.wrap Orb.Protocol.text chan in
  send_raw comm ~req_id:7 ~target ~op:"mark" ~budget_us:0 "";
  Tutil.with_watchdog ~seconds:5.0 ~what:"expired-at-admission reply"
    ~on_expiry:(fun () -> Orb.Communicator.close comm)
    (fun () ->
      match Orb.Communicator.recv comm with
      | Orb.Protocol.Reply
          { rep_id = 7; status = Orb.Protocol.Status_system_error m; _ } ->
          Alcotest.(check bool) "reason names admission" true
            (Tutil.contains m "expired before admission")
      | _ -> Alcotest.fail "expected an expired system-error reply");
  Alcotest.(check bool) "servant never ran" false (Atomic.get ran);
  let st = Orb.stats server in
  Alcotest.(check int) "expired_pre_admission counted" 1
    st.Orb.expired_pre_admission;
  Orb.Communicator.close comm;
  Orb.shutdown server

let test_shutdown_expiry_exactly_one_reply () =
  (* The shutdown x deadline interleaving: a queued request whose
     budget expires while [Orb.shutdown ~drain_deadline] is draining
     must get EXACTLY one reply — the expiry answer from the worker,
     never a second one from the drain's cancel path, and never
     silence. *)
  let ran = Atomic.make false in
  let server =
    Orb.create ~transport:"mem" ~host:"local"
      ~server_policy:{ Orb.default_server_policy with pool = Some tiny_pool }
      ()
  in
  Orb.start server;
  let target = Orb.export server (probe_skeleton ran) in
  let chan =
    Orb.Transport.connect ~proto:"mem" ~host:"local" ~port:(Orb.port server)
  in
  let comm = Orb.Communicator.wrap Orb.Protocol.text chan in
  send_raw comm ~req_id:1 ~target ~op:"sleepy" (sleepy_payload 300);
  Thread.delay 0.08;
  (* 100 ms of budget; the worker frees up at ~300 ms, mid-drain. *)
  send_raw comm ~req_id:2 ~target ~op:"mark" ~budget_us:100_000 "";
  Thread.delay 0.02;
  let shut =
    Thread.create (fun () -> Orb.shutdown ~drain_deadline:3.0 server) ()
  in
  (* Read until the drain's force-close ends the connection, tallying
     every reply per request id. *)
  let replies = Hashtbl.create 4 in
  let expired_msgs = ref 0 in
  Tutil.with_watchdog ~seconds:5.0 ~what:"replies until the drain closes"
    ~on_expiry:(fun () -> Orb.Communicator.close comm)
    (fun () ->
      try
        while true do
          match Orb.Communicator.recv comm with
          | Orb.Protocol.Reply { rep_id; status; _ } ->
              Hashtbl.replace replies rep_id
                (1 + Option.value ~default:0 (Hashtbl.find_opt replies rep_id));
              (match status with
              | Orb.Protocol.Status_system_error m
                when Tutil.contains m "expired" ->
                  incr expired_msgs
              | _ -> ())
          | _ -> ()
        done
      with _ -> ());
  Thread.join shut;
  Alcotest.(check (option int)) "sleeper: exactly one reply" (Some 1)
    (Hashtbl.find_opt replies 1);
  Alcotest.(check (option int)) "expired call: exactly one reply" (Some 1)
    (Hashtbl.find_opt replies 2);
  Alcotest.(check int) "the one reply was the expiry answer" 1 !expired_msgs;
  Alcotest.(check bool) "servant never ran after the budget lapsed" false
    (Atomic.get ran);
  let st = Orb.stats server in
  Alcotest.(check int) "expired_in_queue counted" 1 st.Orb.expired_in_queue;
  Alcotest.(check int) "drain finished clean" 1 st.Orb.drains_clean;
  Orb.Communicator.close comm

(* --------- soak: overload + faults, with conservation --------- *)

let test_soak_conservation () =
  (* N clients x M calls against a small pool, with seeded
     connect-refusal faults on top. Two invariants:
       1. zero lost replies — every call ends in a definite outcome;
       2. conservation — calls that reached the server (any reply:
          ok or system exception) = served + rejected on the server;
          connect-refused calls appear on neither side. *)
  let server =
    Orb.create ~transport:"faulty:mem" ~host:"local"
      ~server_policy:
        {
          Orb.default_server_policy with
          pool =
            Some
              {
                Orb.Pool.default_config with
                workers = 4;
                queue_capacity = 8;
              };
        }
      ()
  in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let n_clients = 8 and calls_each = 30 in
  let clients =
    List.init n_clients (fun _ ->
        Orb.create ~transport:"mem" ~host:"local" ~retry:Orb.Retry.none ())
  in
  F.set_plan (F.seeded ~seed:11 ~refuse_connect:0.15 ());
  let ok = Atomic.make 0
  and serr = Atomic.make 0
  and never_reached = Atomic.make 0 in
  let threads =
    List.map
      (fun client ->
        Thread.create
          (fun () ->
            for i = 1 to calls_each do
              match
                Orb.invoke client target ~op:"sleepy" (fun e ->
                    e.Wire.Codec.put_long (if i mod 3 = 0 then 4 else 1))
              with
              | Some _ -> Atomic.incr ok
              | None -> ()
              | exception Orb.System_exception _ -> Atomic.incr serr
              | exception Orb.Transport.Transport_error _ ->
                  (* Refused connect: provably never dispatched. *)
                  Atomic.incr never_reached
            done)
          ())
      clients
  in
  List.iter Thread.join threads;
  F.clear ();
  let total = n_clients * calls_each in
  let reached = Atomic.get ok + Atomic.get serr in
  Alcotest.(check int) "zero lost replies" total
    (reached + Atomic.get never_reached);
  Alcotest.(check bool) "faults actually fired" true
    (Atomic.get never_reached > 0);
  let st = Orb.stats server in
  Alcotest.(check int) "conservation: reached = served + rejected" reached
    (st.Orb.served + st.Orb.rejected);
  List.iter Orb.shutdown clients;
  Orb.shutdown server

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "runs jobs" `Quick test_pool_runs_jobs;
          Alcotest.test_case "rejects when full" `Quick test_pool_rejects_when_full;
          Alcotest.test_case "block admission deadline" `Quick
            test_pool_block_admission_deadline;
          Alcotest.test_case "drain" `Quick test_pool_drain;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "default workers follow the host" `Quick
            test_default_workers_follow_host;
          Alcotest.test_case "default policy serves a nested call" `Quick
            test_default_policy_serves_nested_call;
        ] );
      ( "overload",
        [
          Alcotest.test_case "reject surfaces as System_exception" `Quick
            test_overload_rejects_with_system_exception;
          Alcotest.test_case "pipelining cap" `Quick test_pipelining_cap;
          Alcotest.test_case "idle-LRU eviction" `Quick test_idle_lru_eviction;
        ] );
      ( "drain",
        [
          Alcotest.test_case "completes in-flight" `Quick
            test_graceful_drain_completes_inflight;
          Alcotest.test_case "deadline aborts" `Quick test_drain_deadline_aborts;
          Alcotest.test_case "rejects during window" `Quick
            test_draining_rejects_new_requests;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "expires in queue, servant never runs" `Quick
            test_budget_expires_in_queue;
          Alcotest.test_case "expired before admission" `Quick
            test_budget_expired_pre_admission;
          Alcotest.test_case "shutdown x expiry: exactly one reply" `Quick
            test_shutdown_expiry_exactly_one_reply;
        ] );
      ( "soak",
        [
          Alcotest.test_case "conservation under faults" `Quick
            test_soak_conservation;
        ] );
    ]
