(* Chaos soak harness: a seeded, time-bounded randomized driver that
   interleaves overload, transport faults, replica kill/restart, drains
   and deadline expiries over the faulty: transport, then asserts the
   system-wide invariants that no single scenario test can pin:

   - reply conservation: every call issued by every worker reaches a
     definite outcome (reply, declared error, or a classified exception)
     and the workers join — nothing hangs, nothing is silently dropped;
   - no zombie work: a servant never STARTS executing after its
     request's deadline budget has lapsed (each request carries its
     absolute lapse instant in the payload; the servant is a tripwire);
   - expiry shedding actually fires: across all replica incarnations
     the servers shed a non-zero number of expired requests;
   - no fd leak and no thread/domain leak once everything is shut down;
   - zero lock-rank violations (the suite runs with ORB_LOCK_CHECK=1).

   Deterministic short mode runs on every `dune runtest` (a few seconds,
   fixed seed); `dune build @soak` runs longer, and SOAK_SECONDS=n
   stretches the wall-clock budget without changing the scenario mix. *)

module F = Orb.Transport.Fault

let soak_type = "IDL:Soak/Tripwire:1.0"

(* ------------------------- invariants -------------------------- *)

let failures : string list ref = ref []
let fail_mutex = Mutex.create ()

let fail_invariant fmt =
  Printf.ksprintf
    (fun msg -> Mutex.protect fail_mutex (fun () -> failures := msg :: !failures))
    fmt

let count_fds () =
  match Sys.readdir "/proc/self/fd" with
  | entries -> Some (Array.length entries)
  | exception Sys_error _ -> None

let count_threads () =
  (* Domains are OS threads too, so this covers both worker domains and
     systhreads. *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line ->
                if String.length line > 8 && String.sub line 0 8 = "Threads:"
                then
                  int_of_string_opt
                    (String.trim (String.sub line 8 (String.length line - 8)))
                else scan ()
            | exception End_of_file -> None
          in
          scan ())

(* ---------------------- tripwire servant ----------------------- *)

(* Each request's payload carries the client-computed absolute lapse
   instant (0.0 = no deadline) and a service time. The servant checks
   the clock the moment it starts: with the mem transport both ends
   share one clock, and the server-side expiry is anchored at receive
   time (>= send time), so a servant observed starting after the lapse
   instant plus a scheduling grace is work the shedding layer should
   have killed. *)
let zombie_runs = Atomic.make 0
let servant_runs = Atomic.make 0

(* Relative budgets are anchored where they are stamped, so time a
   request spends between stamping and the server's decode is slack the
   server cannot see. The soak keeps that slack bounded and small —
   Reject admission (readers never park, so decode is prompt) and fewer
   workers than the client mux in-flight cap (no client-side queueing)
   — and the grace absorbs what remains plus scheduling noise. *)
let zombie_grace = 0.05

let tripwire_skeleton () =
  Orb.Skeleton.create ~type_id:soak_type
    [
      ( "work",
        fun args results ->
          let lapse_at = float_of_string (args.Wire.Codec.get_string ()) in
          let sleep_us = args.Wire.Codec.get_long () in
          Atomic.incr servant_runs;
          (if lapse_at > 0.0 then
             let now = Unix.gettimeofday () in
             if now > lapse_at +. zombie_grace then begin
               Atomic.incr zombie_runs;
               fail_invariant
                 "zombie work: servant started %.1f ms after its budget lapsed"
                 ((now -. lapse_at) *. 1000.)
             end);
          if sleep_us > 0 then Thread.delay (float_of_int sleep_us /. 1e6);
          results.Wire.Codec.put_string "ok" );
    ]

(* ------------------------- replicas ---------------------------- *)

(* Two replicas behind one multi-endpoint reference, each with a small
   pool (2 workers, short queue, Reject admission so readers decode
   promptly) so that the overload phases actually queue work and tiny
   budgets lapse while queued. The chaos timeline kills one and restarts it on the same
   port, E12-style, so drains and failovers run concurrently with the
   fault plan. *)
let small_pool_policy () =
  {
    Orb.default_server_policy with
    pool =
      Some
        {
          Orb.Pool.workers = 2;
          queue_capacity = 8;
          admission = Orb.Pool.Reject;
          backend = Orb.Pool.Domains;
        };
  }

let start_replica ~port =
  let orb =
    Orb.create ~transport:"faulty:mem" ~host:"local" ~port
      ~server_policy:(small_pool_policy ()) ()
  in
  Orb.start orb;
  let r = Orb.export_named orb ~oid:"tripwire" (tripwire_skeleton ()) in
  (orb, r)

(* Server-side shed counters survive replica kills by being harvested
   into these accumulators just before each shutdown. *)
let acc_expired_pre = ref 0
let acc_expired_queue = ref 0
let acc_rejected = ref 0
let acc_served = ref 0

let harvest orb =
  let st = Orb.stats orb in
  acc_expired_pre := !acc_expired_pre + st.Orb.expired_pre_admission;
  acc_expired_queue := !acc_expired_queue + st.Orb.expired_in_queue;
  acc_rejected := !acc_rejected + st.Orb.rejected;
  acc_served := !acc_served + st.Orb.served

(* ------------------------ client workers ----------------------- *)

type tallies = {
  total : int Atomic.t;
  ok : int Atomic.t;
  timeout : int Atomic.t;
  system_err : int Atomic.t;
  transport_err : int Atomic.t;
  protocol_err : int Atomic.t;
  circuit_open : int Atomic.t;
  budget_exhausted : int Atomic.t;
  other : int Atomic.t;
}

let tallies () =
  {
    total = Atomic.make 0;
    ok = Atomic.make 0;
    timeout = Atomic.make 0;
    system_err = Atomic.make 0;
    transport_err = Atomic.make 0;
    protocol_err = Atomic.make 0;
    circuit_open = Atomic.make 0;
    budget_exhausted = Atomic.make 0;
    other = Atomic.make 0;
  }

let one_call client target t rng =
  (* The per-call mix: mostly ordinary calls, a steady stream of
     tiny-budget calls racing long queue waits (the expiry fodder), a
     few no-deadline calls (wire slot absent: old-peer shape), and
     heavy sleepers that keep the small pools saturated. *)
  let timeout, sleep_us =
    match Random.State.int rng 10 with
    | 0 | 1 -> (Some (0.010 +. Random.State.float rng 0.02), 20_000 + Random.State.int rng 30_000)
    | 2 -> (None, Random.State.int rng 500)
    | 3 -> (Some 1.0, 40_000 + Random.State.int rng 20_000)
    | _ -> (Some 0.5, Random.State.int rng 2_000)
  in
  let lapse_at =
    match timeout with
    | Some s -> Unix.gettimeofday () +. s
    | None -> 0.0
  in
  Atomic.incr t.total;
  match
    Orb.invoke client target ~op:"work" ?timeout (fun e ->
        e.Wire.Codec.put_string (Printf.sprintf "%.6f" lapse_at);
        e.Wire.Codec.put_long sleep_us)
  with
  | Some d -> (
      (* A fault-corrupted reply payload can still frame and decode as
         an envelope; its unmarshal then fails, as definite an outcome
         as a corrupted envelope. *)
      match d.Wire.Codec.get_string () with
      | (_ : string) -> Atomic.incr t.ok
      | exception Wire.Codec.Type_error _ -> Atomic.incr t.protocol_err)
  | None -> Atomic.incr t.ok
  | exception Orb.Transport.Timeout _ -> Atomic.incr t.timeout
  | exception Orb.System_exception _ -> Atomic.incr t.system_err
  | exception Orb.Transport.Transport_error _ ->
      Atomic.incr t.transport_err;
      Thread.delay 0.001
  | exception Orb.Protocol.Protocol_error _ ->
      (* A fault-corrupted reply fails decode — a definite, permanent
         outcome for that call. *)
      Atomic.incr t.protocol_err
  | exception Orb.Breaker.Circuit_open _ ->
      (* Fast-fails are instant; pace them so a tripped breaker does
         not turn the closed loop into a busy spin. *)
      Atomic.incr t.circuit_open;
      Thread.delay 0.001
  | exception Orb.Retry.Budget_exhausted _ ->
      Atomic.incr t.budget_exhausted;
      Thread.delay 0.001
  | exception e ->
      Atomic.incr t.other;
      fail_invariant "unclassified exception escaped invoke: %s"
        (Printexc.to_string e)

(* --------------------------- driver ---------------------------- *)

let run ~seconds ~seed ~verbose =
  Orb.Transport.mem_reset ();
  F.clear ();
  let fds0 = count_fds () and threads0 = count_threads () in
  let replicas = Array.init 2 (fun _ -> ref (start_replica ~port:0)) in
  let target =
    Orb.Objref.make_multi
      ~endpoints:
        (Array.to_list
           (Array.map (fun rep -> Orb.Objref.endpoint (snd !rep)) replicas))
      ~oid:"tripwire" ~type_id:soak_type
  in
  let client =
    Orb.create ~transport:"faulty:mem" ~host:"local"
      ~retry:{ Orb.Retry.default with max_attempts = 3; base_delay = 0.002 }
      ~retry_budget:{ Orb.Retry.Budget.default_config with reserve = 20; cap = 60 }
      (* A loose breaker: the tiny-budget calls time out by design, and
         a hair-trigger threshold would fence off both replicas and
         starve the soak of real traffic. *)
      ~breaker:{ Orb.Breaker.failure_threshold = 25; reset_timeout = 0.1 }
      ()
  in
  let t = tallies () in
  let stop = Atomic.make false in
  let n_workers = 6 in
  let workers =
    List.init n_workers (fun i ->
        Thread.create
          (fun () ->
            let rng = Random.State.make [| seed; i |] in
            while not (Atomic.get stop) do
              one_call client target t rng
            done)
          ())
  in
  (* The chaos timeline: cycle calm -> fault-plan -> kill/restart
     phases until the wall-clock budget runs out. Per-phase fault plans
     are seeded from (seed, round) so a given seed replays the same
     scenario. *)
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. seconds in
  let phase_len = Float.max 0.4 (seconds /. 12.) in
  let round = ref 0 in
  (* set_plan/clear reset the fault statistics, so bank them first. *)
  let acc_injected = ref 0 in
  let bank_injected () = acc_injected := !acc_injected + F.injected_total () in
  while Unix.gettimeofday () < t_end do
    let budget = t_end -. Unix.gettimeofday () in
    let nap d = Thread.delay (Float.min d budget) in
    (match !round mod 3 with
    | 0 ->
        if verbose then Printf.printf "  [%4.1fs] calm\n%!" (Unix.gettimeofday () -. t0);
        bank_injected ();
        F.clear ();
        nap phase_len
    | 1 ->
        if verbose then Printf.printf "  [%4.1fs] faults on\n%!" (Unix.gettimeofday () -. t0);
        bank_injected ();
        F.set_plan
          (F.seeded ~seed:(seed + !round) ~refuse_connect:0.05 ~stall_read:0.03
             ~drop_read:0.04 ~corrupt_write:0.02 ());
        nap phase_len
    | _ ->
        let i = !round mod 2 in
        if verbose then
          Printf.printf "  [%4.1fs] kill/restart replica %d\n%!"
            (Unix.gettimeofday () -. t0) i;
        let victim_orb, victim_ref = !(replicas.(i)) in
        let _, _, victim_port = Orb.Objref.endpoint victim_ref in
        harvest victim_orb;
        Orb.shutdown ~drain_deadline:0.05 victim_orb;
        nap (phase_len /. 2.);
        replicas.(i) := start_replica ~port:victim_port;
        nap (phase_len /. 2.));
    incr round
  done;
  bank_injected ();
  F.clear ();
  Atomic.set stop true;
  (* Reply conservation, part one: the workers must come home. Every
     call path is deadline-bounded, so a worker stuck past the grace
     window means a call with no definite outcome. *)
  let joined = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. 20.0 in
        while (not (Atomic.get joined)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.1
        done;
        if not (Atomic.get joined) then begin
          prerr_endline
            "SOAK FAIL: workers did not join within 20s — a call hung \
             without a definite outcome";
          exit 2
        end)
      ()
  in
  List.iter Thread.join workers;
  Atomic.set joined true;
  Thread.join watchdog;
  let client_stats = Orb.stats client in
  Array.iter (fun rep -> harvest (fst !rep)) replicas;
  Orb.shutdown client;
  Array.iter (fun rep -> Orb.shutdown (fst !rep)) replicas;
  (* Settle: worker domains are joined by a detached reaper, so give
     thread/fd counts a bounded moment to converge. *)
  let settled = Unix.gettimeofday () +. 5.0 in
  let rec settle () =
    let fd_ok =
      match (fds0, count_fds ()) with
      | Some before, Some after -> after <= before + 2
      | _ -> true
    and thread_ok =
      match (threads0, count_threads ()) with
      | Some before, Some after -> after <= before + 2
      | _ -> true
    in
    if fd_ok && thread_ok then ()
    else if Unix.gettimeofday () < settled then begin
      Thread.delay 0.05;
      settle ()
    end
    else begin
      (match (fds0, count_fds ()) with
      | Some before, Some after when after > before + 2 ->
          fail_invariant "fd leak: %d open fds before, %d after shutdown"
            before after
      | _ -> ());
      match (threads0, count_threads ()) with
      | Some before, Some after when after > before + 2 ->
          fail_invariant
            "thread/domain leak: %d threads before, %d after shutdown" before
            after
      | _ -> ()
    end
  in
  settle ();
  (* Invariant: the chaos actually exercised expiry shedding. *)
  if !acc_expired_pre + !acc_expired_queue = 0 then
    fail_invariant
      "no expiries shed: the scenario mix never produced a lapsed budget";
  (* Invariant: budget exhaustion seen by a caller is visible in stats,
     and vice versa expected under this fault mix. *)
  if
    Atomic.get t.budget_exhausted > 0
    && client_stats.Orb.retry_budget_exhaustions = 0
  then
    fail_invariant
      "Budget_exhausted raised %d times but stats.retry_budget_exhaustions = 0"
      (Atomic.get t.budget_exhausted);
  (* Invariant: zero rank violations under the armed checker. *)
  (match Locked.violations () with
  | [] -> ()
  | vs ->
      fail_invariant "lock-rank violations recorded: %s"
        (String.concat "; " vs));
  (* Reply conservation, part two: the tallies partition the total. *)
  let accounted =
    Atomic.get t.ok + Atomic.get t.timeout + Atomic.get t.system_err
    + Atomic.get t.transport_err + Atomic.get t.protocol_err
    + Atomic.get t.circuit_open + Atomic.get t.budget_exhausted
    + Atomic.get t.other
  in
  if accounted <> Atomic.get t.total then
    fail_invariant "reply conservation: %d calls issued, %d accounted"
      (Atomic.get t.total) accounted;
  Printf.printf
    "soak: seed=%d seconds=%.1f rounds=%d\n\
    \  calls=%d ok=%d timeout=%d system_err=%d transport_err=%d \
     protocol_err=%d circuit_open=%d budget_exhausted=%d other=%d\n\
    \  servant_runs=%d zombie_runs=%d\n\
    \  shed: expired_pre_admission=%d expired_in_queue=%d rejected=%d \
     served=%d\n\
    \  client: retries=%d failovers=%d breaker_trips=%d \
     retry_budget_exhaustions=%d faults_injected=%d lock_check=%b\n"
    seed seconds !round (Atomic.get t.total) (Atomic.get t.ok)
    (Atomic.get t.timeout) (Atomic.get t.system_err)
    (Atomic.get t.transport_err) (Atomic.get t.protocol_err)
    (Atomic.get t.circuit_open) (Atomic.get t.budget_exhausted)
    (Atomic.get t.other)
    (Atomic.get servant_runs) (Atomic.get zombie_runs) !acc_expired_pre
    !acc_expired_queue !acc_rejected !acc_served client_stats.Orb.retries
    client_stats.Orb.failovers client_stats.Orb.breaker_trips
    client_stats.Orb.retry_budget_exhaustions !acc_injected
    (Locked.checking ());
  match !failures with
  | [] ->
      print_endline "SOAK OK";
      exit 0
  | fs ->
      List.iter (fun f -> Printf.eprintf "SOAK FAIL: %s\n" f) (List.rev fs);
      exit 1

let () =
  let seconds =
    ref
      (match Sys.getenv_opt "SOAK_SECONDS" with
      | Some s -> ( match float_of_string_opt s with Some f -> f | None -> 5.0)
      | None -> 5.0)
  in
  let seed = ref 42 in
  let verbose = ref false in
  Arg.parse
    [
      ("--seconds", Arg.Set_float seconds, "wall-clock budget (default 5, or SOAK_SECONDS)");
      ("--seed", Arg.Set_int seed, "scenario seed (default 42)");
      ("--verbose", Arg.Set verbose, "print the chaos timeline");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "soak [--seconds s] [--seed n] [--verbose]";
  run ~seconds:!seconds ~seed:!seed ~verbose:!verbose
