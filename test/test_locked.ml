(* Deadline waits: [Locked.wait_until] and the deadline-service thread
   behind it, then the ORB paths that park on it.

   - Unit behaviour: a timed-out wait returns promptly after its
     deadline, a broadcast wakes it early, a lapsed deadline never
     parks, and the service thread exits once idle past its linger.
   - Stress: waits whose deadline races a broadcast, across threads and
     domains, never lose a wakeup (a lost one is a hang, caught by a
     watchdog) and never report [`Timed_out] before the deadline.
   - Timed calls: a call with a deadline costs about what the same call
     without one costs — on mem and over tcp — and a call queued behind
     a codec-negotiation offer starts as soon as the answer lands. *)

let lock () = Locked.create ~name:"test.timed" ~rank:Locked.Rank.pool

let eventually ?(timeout = 5.0) ~msg cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let count_threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 8 && String.sub line 0 8 = "Threads:"
              ->
                int_of_string_opt
                  (String.trim (String.sub line 8 (String.length line - 8)))
            | _ -> scan ()
            | exception End_of_file -> None
          in
          scan ())

let no_violations () =
  Alcotest.(check (list string)) "lock checker violations" []
    (Locked.violations ())

(* ---------------- unit behaviour ---------------- *)

let test_times_out_promptly () =
  let l = lock () in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    let at = t0 +. 0.03 in
    let r = Locked.with_lock l (fun () -> Locked.wait_until l at) in
    let late = Unix.gettimeofday () -. at in
    Alcotest.(check bool) "timed out" true (r = `Timed_out);
    Alcotest.(check bool) "not before the deadline" true (late >= 0.);
    if late > 0.02 then
      Alcotest.failf "woke %.1f ms after the deadline (bound 20 ms)"
        (late *. 1000.)
  done;
  no_violations ()

let test_broadcast_wakes_early () =
  let l = lock () in
  let ready = ref false in
  let t0 = Unix.gettimeofday () in
  let at = t0 +. 5.0 in
  let _ =
    Locked.spawn "test.waker" (fun () ->
        Thread.delay 0.02;
        Locked.with_lock l (fun () ->
            ready := true;
            Locked.broadcast l))
  in
  let r =
    Locked.with_lock l (fun () ->
        let rec wait () =
          if !ready then `Woken
          else
            match Locked.wait_until l at with
            | `Woken -> wait ()
            | `Timed_out -> `Timed_out
        in
        wait ())
  in
  Alcotest.(check bool) "woken, not timed out" true (r = `Woken);
  let took = Unix.gettimeofday () -. t0 in
  if took > 1.0 then Alcotest.failf "broadcast took %.3f s to land" took;
  (* The same through an extra condition. *)
  let c = Locked.new_cond l in
  let ready = ref false in
  let _ =
    Locked.spawn "test.waker_c" (fun () ->
        Thread.delay 0.02;
        Locked.with_lock l (fun () ->
            ready := true;
            Locked.broadcast_c c))
  in
  let r =
    Locked.with_lock l (fun () ->
        let rec wait () =
          if !ready then `Woken
          else
            match Locked.wait_until_c c (Unix.gettimeofday () +. 5.0) with
            | `Woken -> wait ()
            | `Timed_out -> `Timed_out
        in
        wait ())
  in
  Alcotest.(check bool) "condition woken" true (r = `Woken);
  no_violations ()

(* A deadline far past any select timeout still parks the service
   instead of spinning it. *)
let test_far_deadline_parks () =
  let l = lock () in
  let ready = ref false in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () in
  let _ =
    Locked.spawn "test.waker_far" (fun () ->
        Thread.delay 0.2;
        Locked.with_lock l (fun () ->
            ready := true;
            Locked.broadcast l))
  in
  Locked.with_lock l (fun () ->
      while not !ready do
        Alcotest.(check bool) "not timed out" true
          (Locked.wait_until l infinity = `Woken)
      done);
  let used = cpu () -. c0 in
  if used > 0.1 then
    Alcotest.failf "%.0f ms of CPU while parked for 200 ms" (used *. 1000.);
  no_violations ()

let test_past_deadline_never_parks () =
  eventually ~timeout:(Locked.deadline_linger +. 5.0)
    ~msg:"the deadline service to idle out" (fun () ->
      not (Locked.deadline_service_running ()));
  let l = lock () in
  let t0 = Unix.gettimeofday () in
  let r =
    Locked.with_lock l (fun () ->
        let a = Locked.wait_until l (t0 -. 1.0) in
        let b = Locked.wait_until l t0 in
        (a, b))
  in
  Alcotest.(check bool) "both timed out" true (r = (`Timed_out, `Timed_out));
  Alcotest.(check bool) "returned at once" true
    (Unix.gettimeofday () -. t0 < 0.005);
  Alcotest.(check bool) "no service started: nothing registered" false
    (Locked.deadline_service_running ());
  no_violations ()

let test_service_exits_when_idle () =
  eventually ~timeout:(Locked.deadline_linger +. 5.0)
    ~msg:"the deadline service to idle out" (fun () ->
      not (Locked.deadline_service_running ()));
  let before = count_threads () in
  let l = lock () in
  ignore
    (Locked.with_lock l (fun () ->
         Locked.wait_until l (Unix.gettimeofday () +. 0.005)));
  Alcotest.(check bool) "service started by a wait" true
    (Locked.deadline_service_running ());
  let idle_from = Unix.gettimeofday () in
  eventually ~timeout:(Locked.deadline_linger +. 2.0)
    ~msg:"the deadline service to exit" (fun () ->
      not (Locked.deadline_service_running ()));
  let idle_for = Unix.gettimeofday () -. idle_from in
  if idle_for < Locked.deadline_linger *. 0.5 then
    Alcotest.failf "service exited after %.3f s idle, linger is %.3f s"
      idle_for Locked.deadline_linger;
  (match (before, count_threads ()) with
  | Some b, Some _ ->
      eventually ~msg:"the service's OS thread to exit" (fun () ->
          match count_threads () with Some a -> a <= b | None -> true)
  | _ -> ());
  (* And the next wait starts a fresh one. *)
  let r =
    Locked.with_lock l (fun () ->
        Locked.wait_until l (Unix.gettimeofday () +. 0.005))
  in
  Alcotest.(check bool) "restarted service fires" true (r = `Timed_out)

let test_foreign_wait_is_a_violation () =
  (* The checker treats a timed wait like any wait: it must target the
     innermost held lock. *)
  let was = Locked.checking () in
  Locked.set_checking true;
  Fun.protect
    ~finally:(fun () ->
      Locked.set_checking was;
      Locked.reset_violations ())
    (fun () ->
      Locked.reset_violations ();
      let outer = Locked.create ~name:"test.outer" ~rank:Locked.Rank.pool in
      let inner = Locked.create ~name:"test.inner" ~rank:Locked.Rank.mux in
      (match
         Locked.with_lock outer (fun () ->
             Locked.with_lock inner (fun () ->
                 Locked.wait_until outer (Unix.gettimeofday () +. 0.001)))
       with
      | _ -> Alcotest.fail "expected Rank_violation"
      | exception Locked.Rank_violation _ -> ());
      Alcotest.(check int) "one violation recorded" 1
        (List.length (Locked.violations ())))

(* ---------------- stress ---------------- *)

(* One waiter and one signaller share a lock. Each round the waiter
   picks a deadline 0-300 us ahead and waits for the round's flag with
   [wait_until]. On even rounds it first asks the signaller to raise the
   flag at a time spread around that deadline, so the broadcast races
   the deadline service; odd rounds have no flag and only the deadline
   can end them. [`Timed_out] must never come early, and a lost timer
   wakeup leaves an odd round parked for good: the watchdog fails the
   run. *)
let stress_pair ~rounds ~seed =
  let l = Locked.create ~name:"test.stress" ~rank:Locked.Rank.pool in
  let request = ref None and flag = ref 0 and stop = ref false in
  let early = ref 0 and worst_late = ref 0. in
  let rng = Random.State.make [| seed |] in
  let signaller =
    Locked.spawn "test.signaller" (fun () ->
        let rec serve () =
          let job =
            Locked.with_lock l (fun () ->
                let rec next () =
                  match !request with
                  | Some j ->
                      request := None;
                      Some j
                  | None when !stop -> None
                  | None ->
                      Locked.wait l;
                      next ()
                in
                next ())
          in
          match job with
          | None -> ()
          | Some (i, at) ->
              let d = at -. Unix.gettimeofday () in
              if d > 0. then Thread.delay d else Thread.yield ();
              Locked.with_lock l (fun () ->
                  flag := i;
                  Locked.broadcast l);
              serve ()
        in
        serve ())
  in
  for i = 1 to rounds do
    let now = Unix.gettimeofday () in
    let at = now +. Random.State.float rng 300e-6 in
    let signal_at = at +. Random.State.float rng 400e-6 -. 200e-6 in
    let raced = i mod 2 = 0 in
    Locked.with_lock l (fun () ->
        if raced then begin
          request := Some (i, signal_at);
          Locked.broadcast l
        end;
        let rec wait () =
          if raced && !flag >= i then ()
          else
            match Locked.wait_until l at with
            | `Woken -> wait ()
            | `Timed_out ->
                let now = Unix.gettimeofday () in
                if now < at then incr early;
                worst_late := Float.max !worst_late (now -. at)
        in
        wait ();
        (* Lockstep: the next round starts after this round's signal. *)
        while raced && !flag < i do
          Locked.wait l
        done)
  done;
  Locked.with_lock l (fun () ->
      stop := true;
      Locked.broadcast l);
  Thread.join signaller;
  (!early, !worst_late)

let test_stress_threads_and_domains () =
  let rounds = 2_500 in
  let finished = Atomic.make false in
  let _watchdog =
    Locked.spawn "test.watchdog" (fun () ->
        let give_up = Unix.gettimeofday () +. 120. in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < give_up do
          Thread.delay 0.1
        done;
        if not (Atomic.get finished) then begin
          prerr_endline
            "wait_until stress: a waiter never woke (lost wakeup or hang)";
          exit 2
        end)
  in
  let results = Array.make 4 (0, 0.) in
  (* Two pairs on a second domain, two on this one. *)
  let dom =
    Locked.spawn_domain "test.stress_domain" (fun () ->
        let ts =
          List.init 2 (fun k ->
              Locked.spawn "test.pair" (fun () ->
                  results.(k) <- stress_pair ~rounds ~seed:(100 + k)))
        in
        List.iter Thread.join ts)
  in
  let ts =
    List.init 2 (fun k ->
        Locked.spawn "test.pair" (fun () ->
            results.(2 + k) <- stress_pair ~rounds ~seed:(200 + k)))
  in
  List.iter Thread.join ts;
  Domain.join dom;
  Atomic.set finished true;
  Array.iteri
    (fun k (early, late) ->
      Alcotest.(check int) (Printf.sprintf "pair %d: no early timeout" k) 0
        early;
      (* Generous: two vCPUs shared with the signallers and a domain. A
         lost wakeup shows as a hang, not as lateness. *)
      if late > 0.25 then
        Alcotest.failf "pair %d: a timed-out wait woke %.1f ms late" k
          (late *. 1000.))
    results;
  no_violations ()

(* ---------------- timed calls ---------------- *)

let echo_type = "IDL:Test/Echo:1.0"

let echo_skeleton () =
  Orb.Skeleton.create ~type_id:echo_type
    [
      ("echo", fun args results ->
          results.Wire.Codec.put_string ("echo:" ^ args.Wire.Codec.get_string ()));
    ]

let echo ?timeout client target =
  match
    Orb.invoke client target ~op:"echo" ?timeout (fun e ->
        e.Wire.Codec.put_string "x")
  with
  | Some d -> ignore (d.Wire.Codec.get_string ())
  | None -> Alcotest.fail "expected a reply"

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Per-call time of [calls] serial echoes, median over alternating
   rounds with and without a deadline, so drift hits both arms alike. *)
let timed_vs_untimed client target ~calls ~rounds =
  for _ = 1 to 50 do
    echo client target;
    echo ~timeout:1.0 client target
  done;
  let per_call timeout =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      echo ?timeout client target
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int calls
  in
  let untimed = ref [] and timed = ref [] in
  for _ = 1 to rounds do
    untimed := per_call None :: !untimed;
    timed := per_call (Some 1.0) :: !timed
  done;
  (median !untimed, median !timed)

let check_within_2x what (untimed, timed) =
  Printf.printf "%s: %.0f us per call untimed, %.0f us with ~timeout:1.0\n"
    what (untimed *. 1e6) (timed *. 1e6);
  if timed > 2. *. untimed then
    Alcotest.failf
      "%s: a call with ~timeout:1.0 took %.0f us, %.1fx the %.0f us of the \
       same call without one (bound 2x)"
      what (timed *. 1e6) (timed /. untimed) (untimed *. 1e6)

let with_pair ~transport ~host f =
  let server = Orb.create ~transport ~host () in
  Orb.start server;
  let client = Orb.create ~transport ~host () in
  Fun.protect
    ~finally:(fun () ->
      Orb.shutdown client;
      Orb.shutdown server)
    (fun () -> f client (Orb.export server (echo_skeleton ())))

let test_timed_call_mem () =
  with_pair ~transport:"mem" ~host:"local" (fun client target ->
      check_within_2x "mem"
        (timed_vs_untimed client target ~calls:200 ~rounds:5))

let test_timed_call_tcp () =
  with_pair ~transport:"tcp" ~host:"127.0.0.1" (fun client target ->
      check_within_2x "tcp (default mux)"
        (timed_vs_untimed client target ~calls:100 ~rounds:5))

(* A call that arrives while the connection's codec offer is in flight
   holds at the negotiation gate; once the answer lands it must go at
   once. Measured server-side, from the offering call's servant
   finishing to the held call's servant starting: two mem hops apart. *)
let test_call_behind_offer_starts_promptly () =
  let gaps =
    List.init 11 (fun _ ->
        let slow_done = ref 0. and echo_started = ref 0. in
        let in_slow = Atomic.make false in
        let server =
          Orb.create ~transport:"mem" ~host:"local" ~codecs:[ Orb.Protocol.hcx ]
            ()
        in
        Orb.start server;
        let client =
          Orb.create ~transport:"mem" ~host:"local"
            ~codecs:[ Orb.Protocol.hcx ] ~call_timeout:1.0 ()
        in
        Fun.protect
          ~finally:(fun () ->
            Orb.shutdown client;
            Orb.shutdown server)
          (fun () ->
            let skel =
              Orb.Skeleton.create ~type_id:echo_type
                [
                  ("echo", fun args results ->
                      echo_started := Unix.gettimeofday ();
                      results.Wire.Codec.put_string
                        (args.Wire.Codec.get_string ()));
                  ("slow", fun _ results ->
                      Atomic.set in_slow true;
                      Thread.delay 0.02;
                      slow_done := Unix.gettimeofday ();
                      results.Wire.Codec.put_bool true);
                ]
            in
            let target = Orb.export server skel in
            let offerer =
              Locked.spawn "test.offerer" (fun () ->
                  ignore
                    (Orb.invoke client target ~op:"slow" (fun _ -> ())))
            in
            eventually ~msg:"the offering call to reach its servant" (fun () ->
                Atomic.get in_slow);
            echo client target;
            Thread.join offerer;
            Alcotest.(check int) "negotiated once" 1
              (Orb.stats client).Orb.codec_negotiations;
            !echo_started -. !slow_done))
  in
  let gap = median gaps in
  Printf.printf "held call started %.3f ms after the answer (median of 11)\n"
    (gap *. 1000.);
  if gap > 0.002 then
    Alcotest.failf
      "held call started %.2f ms after the offer's answer (median of %s ms; \
       bound 2 ms)"
      (gap *. 1000.)
      (String.concat ", "
         (List.map (fun g -> Printf.sprintf "%.2f" (g *. 1000.)) gaps))

let () =
  Alcotest.run "locked"
    [
      ( "wait_until",
        [
          Alcotest.test_case "times out within 20 ms" `Quick
            test_times_out_promptly;
          Alcotest.test_case "broadcast wakes early" `Quick
            test_broadcast_wakes_early;
          Alcotest.test_case "past deadline never parks" `Quick
            test_past_deadline_never_parks;
          Alcotest.test_case "far deadline parks" `Quick test_far_deadline_parks;
          Alcotest.test_case "foreign wait is a violation" `Quick
            test_foreign_wait_is_a_violation;
          Alcotest.test_case "service exits when idle" `Quick
            test_service_exits_when_idle;
          Alcotest.test_case "stress: threads and domains" `Quick
            test_stress_threads_and_domains;
        ] );
      ( "timed calls",
        [
          Alcotest.test_case "mem: timeout within 2x" `Quick test_timed_call_mem;
          Alcotest.test_case "tcp mux: timeout within 2x" `Quick
            test_timed_call_tcp;
          Alcotest.test_case "call behind an offer starts promptly" `Quick
            test_call_behind_offer_starts_promptly;
        ] );
    ]
