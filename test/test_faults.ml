(* Fault-tolerance tests, driven by the deterministic fault-injection
   transport ("faulty:mem"): deadlines, the retry policy, the circuit
   breaker, and the error taxonomy. Every scenario runs under a fixed
   plan (scripted or seeded), so failures reproduce bit-for-bit. *)

module F = Orb.Transport.Fault

let echo_type = "IDL:Test/Echo:1.0"

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ()));
    ]

(* Channel-side helpers: the client's channel talks TO the server, so
   its peer description reads "mem:<port>(server)"; the server-side
   accepted channel reads "mem:<port>(client)". *)
let toward_server peer = Tutil.contains peer "(server)"
let toward_client peer = Tutil.contains peer "(client)"

let no_jitter =
  { Orb.Retry.default with base_delay = 0.001; max_delay = 0.005; jitter = 0. }

(* A server on the faulty-mem transport plus a client configured by the
   caller; the plan is always cleared afterwards. *)
let with_faulty_server ?call_timeout ?retry ?retry_budget ?breaker f =
  let server = Orb.create ~transport:"faulty:mem" ~host:"local" () in
  Orb.start server;
  let target = Orb.export server (echo_skeleton ()) in
  let client =
    Orb.create ~transport:"mem" ~host:"local" ?call_timeout ?retry
      ?retry_budget ?breaker ()
  in
  Fun.protect
    ~finally:(fun () ->
      F.clear ();
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () -> f ~server ~client ~target)

let invoke_echo client target s =
  match Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_string s) with
  | Some d -> d.Wire.Codec.get_string ()
  | None -> Alcotest.fail "expected a reply"

(* ---------------- deadlines ---------------- *)

let test_timeout_on_stalled_read () =
  (* Acceptance: a call against a read-stalling endpoint returns
     Transport.Timeout within the configured deadline (+-100ms), and
     the deadline miss is never retried. *)
  with_faulty_server ~call_timeout:0.3 ~retry:no_jitter
    (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; peer; _ } ->
          match op with
          | `Read when toward_server peer -> Some F.Stall_read
          | _ -> None);
      let t0 = Unix.gettimeofday () in
      (match invoke_echo client target "never" with
      | exception Orb.Transport.Timeout _ -> ()
      | exception e ->
          Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e)
      | r -> Alcotest.failf "expected Timeout, got reply %S" r);
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "deadline honoured (elapsed %.3fs)" elapsed)
        true
        (elapsed >= 0.25 && elapsed <= 0.6);
      let st = Orb.stats client in
      Alcotest.(check int) "timeout counted" 1 st.Orb.timeouts;
      Alcotest.(check int) "deadline miss not retried" 0 st.Orb.retries)

let test_backoff_past_deadline_fails_at_once () =
  (* Refused connects, a 50 ms deadline and a 1 s backoff: the retry
     could only start past the deadline, so the call fails at once with
     the attempt's own error. Nothing sleeps, no retry is counted, no
     budget credit is spent, and the interceptors see one failure. *)
  with_faulty_server ~call_timeout:0.05
    ~retry:{ no_jitter with max_attempts = 3; base_delay = 1.0; max_delay = 1.0 }
    (fun ~server:_ ~client ~target ->
      let fc, failures = Orb.Interceptor.failure_counter () in
      Orb.Interceptor.add (Orb.client_interceptors client) fc;
      F.set_plan (fun { F.op; _ } ->
          match op with `Connect -> Some F.Refuse_connect | _ -> None);
      let balance = (Orb.stats client).Orb.retry_budget_balance in
      let t0 = Unix.gettimeofday () in
      (match invoke_echo client target "x" with
      | exception Orb.Transport.Transport_error _ -> ()
      | exception e ->
          Alcotest.failf "expected the connect error, got %s"
            (Printexc.to_string e)
      | r -> Alcotest.failf "expected Transport_error, got reply %S" r);
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "failed without sleeping (elapsed %.3fs)" elapsed)
        true (elapsed < 0.03);
      let st = Orb.stats client in
      Alcotest.(check int) "no retry counted" 0 st.Orb.retries;
      Alcotest.(check int) "no timeout counted" 0 st.Orb.timeouts;
      Alcotest.(check int) "no credit spent" balance st.Orb.retry_budget_balance;
      Alcotest.(check int) "one failure seen" 1 (failures ()))

let test_per_call_timeout_overrides () =
  (* No ORB default, per-call timeout only; and a successful call is
     unaffected by the deadline machinery. *)
  with_faulty_server ~retry:no_jitter (fun ~server:_ ~client ~target ->
      Alcotest.(check string) "clean call" "echo:ok" (invoke_echo client target "ok");
      F.set_plan (fun { F.op; peer; _ } ->
          match op with
          | `Read when toward_server peer -> Some F.Stall_read
          | _ -> None);
      match
        Orb.invoke client target ~op:"echo" ~timeout:0.2 (fun e ->
            e.Wire.Codec.put_string "x")
      with
      | exception Orb.Transport.Timeout _ -> ()
      | _ -> Alcotest.fail "expected Timeout from per-call deadline")

(* ---------------- retries ---------------- *)

let test_retry_refused_connects () =
  with_faulty_server ~retry:{ no_jitter with max_attempts = 3 }
    (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; nth; _ } ->
          match op with
          | `Connect when nth < 2 -> Some F.Refuse_connect
          | _ -> None);
      Alcotest.(check string) "third attempt lands" "echo:hi"
        (invoke_echo client target "hi");
      let st = Orb.stats client in
      Alcotest.(check int) "two retries recorded" 2 st.Orb.retries;
      Alcotest.(check int) "one connection in the cache" 1 st.Orb.opened;
      Alcotest.(check (list (pair string int))) "injection ledger"
        [ ("refuse_connect", 2) ] (F.injected ()))

let test_retries_exhausted () =
  with_faulty_server ~retry:{ no_jitter with max_attempts = 3 }
    (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; _ } ->
          match op with `Connect -> Some F.Refuse_connect | _ -> None);
      (match invoke_echo client target "x" with
      | exception Orb.Transport.Transport_error _ -> ()
      | _ -> Alcotest.fail "expected Transport_error");
      Alcotest.(check int) "all attempts burned" 2 (Orb.stats client).Orb.retries;
      (* The endpoint entry must not be poisoned: once the fault plan
         lifts, the same client recovers immediately. *)
      F.clear ();
      Alcotest.(check string) "recovers after plan lifts" "echo:y"
        (invoke_echo client target "y"))

let test_truncated_reply_not_retried () =
  (* The reply dies mid-frame AFTER the request went out on a fresh
     connection: retrying could dispatch the request twice, so the
     failure must surface. *)
  with_faulty_server ~retry:{ no_jitter with max_attempts = 5 }
    (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; peer; _ } ->
          match op with
          | `Write when toward_client peer -> Some (F.Truncate_write 3)
          | _ -> None);
      (match invoke_echo client target "x" with
      | exception Orb.Transport.Transport_error _ -> ()
      | r -> Alcotest.failf "expected Transport_error, got %S" r);
      Alcotest.(check int) "no duplicate dispatch" 0 (Orb.stats client).Orb.retries;
      F.clear ();
      Alcotest.(check string) "fresh connection recovers" "echo:z"
        (invoke_echo client target "z");
      Alcotest.(check int) "reopened once" 2 (Orb.stats client).Orb.opened)

let test_corrupted_reply_is_protocol_error () =
  (* Byte 0 of the reply body is the message tag; flipping it must
     surface as Protocol_error (permanent — not retried). *)
  with_faulty_server ~retry:{ no_jitter with max_attempts = 5 }
    (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; peer; _ } ->
          match op with
          | `Write when toward_client peer -> Some (F.Corrupt_write 0)
          | _ -> None);
      (match invoke_echo client target "x" with
      | exception Orb.Protocol.Protocol_error _ -> ()
      | exception e ->
          Alcotest.failf "expected Protocol_error, got %s" (Printexc.to_string e)
      | r -> Alcotest.failf "expected Protocol_error, got %S" r);
      Alcotest.(check int) "corruption never retried" 0
        (Orb.stats client).Orb.retries)

let test_delayed_write_slows_but_succeeds () =
  with_faulty_server ~retry:no_jitter (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; nth; peer } ->
          match op with
          | `Write when nth = 0 && toward_server peer -> Some (F.Delay_write 0.08)
          | _ -> None);
      let t0 = Unix.gettimeofday () in
      Alcotest.(check string) "delayed call completes" "echo:slow"
        (invoke_echo client target "slow");
      Alcotest.(check bool) "delay was injected" true
        (Unix.gettimeofday () -. t0 >= 0.07);
      Alcotest.(check (list (pair string int))) "ledger" [ ("delay_write", 1) ]
        (F.injected ()))

(* ---------------- circuit breaker ---------------- *)

let breaker_cfg =
  { Orb.Breaker.failure_threshold = 3; reset_timeout = 0.2 }

let test_breaker_trips_and_recovers () =
  (* Acceptance: after the failure threshold the breaker fast-fails in
     <1ms without touching the network, until a half-open probe
     succeeds. *)
  with_faulty_server ~retry:Orb.Retry.none ~breaker:breaker_cfg
    (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; _ } ->
          match op with `Connect -> Some F.Refuse_connect | _ -> None);
      for _ = 1 to 3 do
        match invoke_echo client target "x" with
        | exception Orb.Transport.Transport_error _ -> ()
        | _ -> Alcotest.fail "expected Transport_error"
      done;
      Alcotest.(check (option string)) "circuit tripped" (Some "open")
        (Option.map Orb.Breaker.state_to_string (Orb.breaker_state client target));
      (* Tripped: fast-fail, no network, fast. *)
      let connects_before = F.injected_total () in
      let t0 = Unix.gettimeofday () in
      (match invoke_echo client target "x" with
      | exception Orb.Breaker.Circuit_open _ -> ()
      | exception e ->
          Alcotest.failf "expected Circuit_open, got %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "expected Circuit_open");
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "fast-fail is fast (%.6fs)" elapsed)
        true (elapsed < 0.005);
      Alcotest.(check int) "fast-fail touched no transport" connects_before
        (F.injected_total ());
      let st = Orb.stats client in
      Alcotest.(check int) "one trip" 1 st.Orb.breaker_trips;
      Alcotest.(check bool) "fast-fails counted" true (st.Orb.breaker_fast_fails >= 1);
      (* Endpoint heals; after the cool-down one probe (Locate_request)
         closes the circuit and real traffic flows again. *)
      F.clear ();
      Thread.delay 0.25;
      Alcotest.(check string) "probe reopens traffic" "echo:back"
        (invoke_echo client target "back");
      Alcotest.(check (option string)) "circuit closed" (Some "closed")
        (Option.map Orb.Breaker.state_to_string (Orb.breaker_state client target)))

let test_breaker_reprobe_failure_retrips () =
  with_faulty_server ~retry:Orb.Retry.none ~breaker:breaker_cfg
    (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; _ } ->
          match op with `Connect -> Some F.Refuse_connect | _ -> None);
      for _ = 1 to 3 do
        try ignore (invoke_echo client target "x")
        with Orb.Transport.Transport_error _ -> ()
      done;
      Thread.delay 0.25;
      (* Endpoint still dead: the half-open probe fails and re-trips. *)
      (match invoke_echo client target "x" with
      | exception Orb.Transport.Transport_error _ -> ()
      | _ -> Alcotest.fail "expected probe failure");
      Alcotest.(check (option string)) "re-tripped" (Some "open")
        (Option.map Orb.Breaker.state_to_string (Orb.breaker_state client target));
      Alcotest.(check int) "two trips" 2 (Orb.stats client).Orb.breaker_trips)

let test_breaker_ignores_application_errors () =
  (* A decoded system-error reply proves the peer is alive: it must not
     count toward tripping. *)
  with_faulty_server ~retry:Orb.Retry.none
    ~breaker:{ breaker_cfg with failure_threshold = 2 }
    (fun ~server:_ ~client ~target ->
      for _ = 1 to 4 do
        match Orb.invoke client target ~op:"nope" (fun _ -> ()) with
        | exception Orb.System_exception _ -> ()
        | _ -> Alcotest.fail "expected System_exception"
      done;
      Alcotest.(check (option string)) "still closed" (Some "closed")
        (Option.map Orb.Breaker.state_to_string (Orb.breaker_state client target));
      Alcotest.(check int) "no trips" 0 (Orb.stats client).Orb.breaker_trips)

(* ---------------- observability ---------------- *)

let test_failures_visible_to_interceptors () =
  with_faulty_server ~retry:{ no_jitter with max_attempts = 3 }
    (fun ~server:_ ~client ~target ->
      let fc, failures = Orb.Interceptor.failure_counter () in
      Orb.Interceptor.add (Orb.client_interceptors client) fc;
      F.set_plan (fun { F.op; _ } ->
          match op with `Connect -> Some F.Refuse_connect | _ -> None);
      (try ignore (invoke_echo client target "x")
       with Orb.Transport.Transport_error _ -> ());
      (* Every failed attempt is observable: 2 retried + 1 final. *)
      Alcotest.(check int) "three failures observed" 3 (failures ()))

(* ---------------- plan determinism ---------------- *)

let test_seeded_plan_is_deterministic () =
  let mk () =
    F.seeded ~seed:42 ~refuse_connect:0.3 ~stall_read:0.2 ~drop_read:0.2
      ~truncate_write:0.15 ~corrupt_write:0.15 ~delay_write:0.2 ()
  in
  let points =
    List.concat_map
      (fun op -> List.init 50 (fun nth -> { F.op; nth; peer = "p" }))
      [ `Connect; `Read; `Write ]
  in
  let run plan = List.map plan points in
  Alcotest.(check bool) "same seed, same schedule" true (run (mk ()) = run (mk ()));
  let other =
    F.seeded ~seed:43 ~refuse_connect:0.3 ~stall_read:0.2 ~drop_read:0.2
      ~truncate_write:0.15 ~corrupt_write:0.15 ~delay_write:0.2 ()
  in
  Alcotest.(check bool) "different seed, different schedule" false
    (run (mk ()) = run other);
  let some = List.filter Option.is_some (run (mk ())) in
  Alcotest.(check bool) "plan actually injects" true (List.length some > 10)

(* ---------------- retry policy unit tests ---------------- *)

let test_backoff_schedule () =
  let p =
    { Orb.Retry.max_attempts = 5; base_delay = 0.01; multiplier = 2.0;
      max_delay = 0.05; jitter = 0.; seed = 0 }
  in
  let d n = Orb.Retry.delay_for p ~attempt:n in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.01 (d 1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.02 (d 2);
  Alcotest.(check (float 1e-9)) "attempt 3" 0.04 (d 3);
  Alcotest.(check (float 1e-9)) "capped" 0.05 (d 4);
  let j = { p with jitter = 0.5; seed = 7 } in
  Alcotest.(check (float 1e-9)) "jitter deterministic"
    (Orb.Retry.delay_for j ~attempt:2)
    (Orb.Retry.delay_for j ~attempt:2);
  let dj = Orb.Retry.delay_for j ~attempt:2 in
  Alcotest.(check bool) "jitter in band" true (dj >= 0.01 && dj <= 0.03)

let test_error_taxonomy () =
  Alcotest.(check bool) "transport error is transient" true
    (Orb.Retry.classify (Orb.Transport.Transport_error "x") = Orb.Retry.Transient);
  Alcotest.(check bool) "timeout is deadline" true
    (Orb.Retry.classify (Orb.Transport.Timeout "x") = Orb.Retry.Deadline);
  Alcotest.(check bool) "system error is permanent" true
    (Orb.Retry.classify (Failure "x") = Orb.Retry.Permanent);
  Alcotest.(check bool) "timeout not retried" true
    (Orb.Retry.decide Orb.Retry.default ~budget:(Orb.Retry.Budget.create ())
       ~attempt:1
       (Orb.Retry.classify (Orb.Transport.Timeout "x"))
       ~unsent:true ~deadline:None ~now:0.
    = Orb.Retry.Give_up)

(* Drive [f] the way the ORB's call loop does: after each failed attempt
   ask [Retry.decide] (the failure counts as unsent), sleep its backoff
   and try again, or stop at its first refusal. *)
let drive ?(budget = Orb.Retry.Budget.create ()) ?deadline ~sleep p f =
  let rec go attempt =
    match f ~attempt with
    | v -> v
    | exception e -> (
        match
          Orb.Retry.decide p ~budget ~attempt (Orb.Retry.classify e)
            ~unsent:true ~deadline ~now:(Unix.gettimeofday ())
        with
        | Orb.Retry.Retry_after d ->
            sleep d;
            go (attempt + 1)
        | Orb.Retry.Give_up -> raise e
        | Orb.Retry.Exhausted ->
            raise (Orb.Retry.Budget_exhausted (Printexc.to_string e)))
  in
  go 1

let test_retry_run_driver () =
  let attempts = ref 0 in
  let v =
    drive ~sleep:(fun _ -> ())
      { Orb.Retry.default with max_attempts = 4 }
      (fun ~attempt ->
        incr attempts;
        if attempt < 3 then raise (Orb.Transport.Transport_error "flaky")
        else "ok")
  in
  Alcotest.(check string) "succeeds" "ok" v;
  Alcotest.(check int) "took three attempts" 3 !attempts;
  (* Permanent errors pass straight through. *)
  attempts := 0;
  (match
     drive ~sleep:(fun _ -> ())
       { Orb.Retry.default with max_attempts = 4 }
       (fun ~attempt:_ ->
         incr attempts;
         failwith "bug")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  Alcotest.(check int) "no retry of permanent" 1 !attempts

(* ---------------- retry budget ---------------- *)

let test_retry_budget_bucket () =
  let b =
    Orb.Retry.Budget.create
      ~config:{ Orb.Retry.Budget.ratio = 0.5; reserve = 2; cap = 5 }
      ()
  in
  Alcotest.(check int) "initial balance" 2 (Orb.Retry.Budget.balance b);
  Alcotest.(check bool) "withdraw 1" true (Orb.Retry.Budget.try_withdraw b);
  Alcotest.(check bool) "withdraw 2" true (Orb.Retry.Budget.try_withdraw b);
  Alcotest.(check bool) "empty refuses" false (Orb.Retry.Budget.try_withdraw b);
  Alcotest.(check int) "exhaustion counted" 1 (Orb.Retry.Budget.exhaustions b);
  (* Two successes at ratio 0.5 bank one whole retry credit. *)
  Orb.Retry.Budget.deposit b;
  Alcotest.(check bool) "half a credit refuses" false
    (Orb.Retry.Budget.try_withdraw b);
  Orb.Retry.Budget.deposit b;
  Alcotest.(check bool) "full credit withdraws" true
    (Orb.Retry.Budget.try_withdraw b);
  (* The cap bounds how much old success can bank. *)
  for _ = 1 to 100 do
    Orb.Retry.Budget.deposit b
  done;
  Alcotest.(check bool) "capped" true (Orb.Retry.Budget.balance b <= 5);
  Alcotest.(check bool) "exhaustion is permanent" true
    (Orb.Retry.classify (Orb.Retry.Budget_exhausted "x") = Orb.Retry.Permanent)

let test_retry_run_budget_and_deadline () =
  (* A one-credit budget: the first retry withdraws it, the second
     raises Budget_exhausted instead of retrying. *)
  let attempts = ref 0 in
  let b =
    Orb.Retry.Budget.create
      ~config:{ Orb.Retry.Budget.ratio = 0.; reserve = 1; cap = 1 }
      ()
  in
  (match
     drive ~sleep:(fun _ -> ()) ~budget:b
       { Orb.Retry.default with max_attempts = 5 }
       (fun ~attempt:_ ->
         incr attempts;
         raise (Orb.Transport.Transport_error "down"))
   with
  | exception Orb.Retry.Budget_exhausted _ -> ()
  | _ -> Alcotest.fail "expected Budget_exhausted");
  Alcotest.(check int) "one retry then cut off" 2 !attempts;
  (* A deadline already in the past: the original error propagates
     without a retry and without sleeping. *)
  attempts := 0;
  (match
     drive
       ~sleep:(fun _ -> Alcotest.fail "slept past the deadline")
       ~deadline:(Unix.gettimeofday () -. 1.)
       { Orb.Retry.default with max_attempts = 5 }
       (fun ~attempt:_ ->
         incr attempts;
         raise (Orb.Transport.Transport_error "down"))
   with
  | exception Orb.Transport.Transport_error _ -> ()
  | _ -> Alcotest.fail "expected the original error");
  Alcotest.(check int) "no attempt past deadline" 1 !attempts

let test_orb_retry_budget_exhaustion () =
  (* ORB-level: with a one-retry budget against a dead endpoint, the
     call fails loudly with Budget_exhausted — a Permanent error, never
     a silent stall — and the refusal is visible in stats. *)
  with_faulty_server
    ~retry:{ no_jitter with max_attempts = 5 }
    ~retry_budget:{ Orb.Retry.Budget.ratio = 0.; reserve = 1; cap = 1 }
    (fun ~server:_ ~client ~target ->
      F.set_plan (fun { F.op; _ } ->
          match op with `Connect -> Some F.Refuse_connect | _ -> None);
      let t0 = Unix.gettimeofday () in
      (match invoke_echo client target "x" with
      | exception Orb.Retry.Budget_exhausted m ->
          Alcotest.(check bool) "message names the last error" true
            (Tutil.contains m "budget")
      | exception e ->
          Alcotest.failf "expected Budget_exhausted, got %s"
            (Printexc.to_string e)
      | _ -> Alcotest.fail "expected Budget_exhausted");
      Alcotest.(check bool) "failed fast, no stall" true
        (Unix.gettimeofday () -. t0 < 1.0);
      let st = Orb.stats client in
      Alcotest.(check int) "one retry spent the budget" 1 st.Orb.retries;
      Alcotest.(check int) "exhaustion observable" 1
        st.Orb.retry_budget_exhaustions;
      Alcotest.(check int) "balance drained" 0 st.Orb.retry_budget_balance;
      (* Successes refill it: lift the faults, land calls, retry again. *)
      F.clear ();
      Alcotest.(check string) "recovers" "echo:y" (invoke_echo client target "y"))

(* ---------------- breaker unit tests ---------------- *)

let test_breaker_state_machine () =
  let b =
    Orb.Breaker.create
      ~config:{ Orb.Breaker.failure_threshold = 2; reset_timeout = 0.05 } ()
  in
  let k = "ep" in
  Alcotest.(check bool) "closed proceeds" true
    (Orb.Breaker.before_call b k = Orb.Breaker.Proceed);
  Orb.Breaker.failure b k;
  Alcotest.(check bool) "one failure stays closed" true
    (Orb.Breaker.state b k = Orb.Breaker.Closed);
  Orb.Breaker.failure b k;
  Alcotest.(check bool) "threshold trips" true
    (Orb.Breaker.state b k = Orb.Breaker.Open);
  Alcotest.(check bool) "open fast-fails" true
    (Orb.Breaker.before_call b k = Orb.Breaker.Fast_fail);
  Thread.delay 0.06;
  Alcotest.(check bool) "cool-down grants one probe" true
    (Orb.Breaker.before_call b k = Orb.Breaker.Probe);
  Alcotest.(check bool) "second caller fast-fails during probe" true
    (Orb.Breaker.before_call b k = Orb.Breaker.Fast_fail);
  Orb.Breaker.success b k;
  Alcotest.(check bool) "probe success closes" true
    (Orb.Breaker.state b k = Orb.Breaker.Closed);
  Alcotest.(check int) "one trip counted" 1 (Orb.Breaker.trips b);
  (* A success resets the consecutive-failure count. *)
  Orb.Breaker.failure b k;
  Orb.Breaker.success b k;
  Orb.Breaker.failure b k;
  Alcotest.(check bool) "non-consecutive failures do not trip" true
    (Orb.Breaker.state b k = Orb.Breaker.Closed)

let () =
  Alcotest.run "faults"
    [
      ( "deadlines",
        [
          Alcotest.test_case "timeout on stalled read" `Quick
            test_timeout_on_stalled_read;
          Alcotest.test_case "per-call timeout" `Quick test_per_call_timeout_overrides;
          Alcotest.test_case "backoff past the deadline fails at once" `Quick
            test_backoff_past_deadline_fails_at_once;
        ] );
      ( "retries",
        [
          Alcotest.test_case "refused connects retried" `Quick
            test_retry_refused_connects;
          Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted;
          Alcotest.test_case "truncated reply not retried" `Quick
            test_truncated_reply_not_retried;
          Alcotest.test_case "corrupted reply is protocol error" `Quick
            test_corrupted_reply_is_protocol_error;
          Alcotest.test_case "delayed writes" `Quick
            test_delayed_write_slows_but_succeeds;
        ] );
      ( "retry budget",
        [
          Alcotest.test_case "token bucket" `Quick test_retry_budget_bucket;
          Alcotest.test_case "run driver: budget + deadline" `Quick
            test_retry_run_budget_and_deadline;
          Alcotest.test_case "exhaustion fails loudly" `Quick
            test_orb_retry_budget_exhaustion;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips, fast-fails, recovers" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "failed probe re-trips" `Quick
            test_breaker_reprobe_failure_retrips;
          Alcotest.test_case "application errors don't trip" `Quick
            test_breaker_ignores_application_errors;
          Alcotest.test_case "state machine" `Quick test_breaker_state_machine;
        ] );
      ( "observability",
        [
          Alcotest.test_case "failures hit interceptors" `Quick
            test_failures_visible_to_interceptors;
        ] );
      ( "policy",
        [
          Alcotest.test_case "seeded plan determinism" `Quick
            test_seeded_plan_is_deterministic;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
          Alcotest.test_case "retry run driver" `Quick test_retry_run_driver;
        ] );
    ]
