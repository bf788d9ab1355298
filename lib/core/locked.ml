(* Named, ranked locks — the ORB's locking policy as an artifact.

   Acquisition order must strictly descend ranks: while holding a lock
   of rank [r], only locks of rank [< r] may be taken. [Rank.all] is
   the single source of truth; [lib/analysis/conc.ml] resolves
   [~rank:Rank.x] annotations against it statically, and the runtime
   checker below enforces the same lattice per thread when enabled.

   The checker costs one atomic load per acquisition when off. When
   on, each thread carries a stack of (rank, name) pairs for the locks
   it holds; pushing a rank that is not strictly below the current top
   raises [Rank_violation] and records the event so a test harness can
   assert zero violations after the fact even if an intervening
   handler swallowed the exception. *)

module Rank = struct
  let communicator = 70
  let pool = 60
  let connection_cache = 50
  let interceptor = 47
  let smart = 46
  let adapter = 45
  let naming_registry = 44
  let naming_resolver = 43
  let mux = 40
  let breaker = 30
  let mem_registry = 28
  let mem_listener = 26
  let tcp_channel = 25
  let pipe = 24
  let fault = 23
  let metrics = 20
  let trace_ids = 15
  let objref_cache = 12
  let obs = 11
  let sinks = 10

  let all =
    [
      ("communicator", communicator);
      ("pool", pool);
      ("connection_cache", connection_cache);
      ("interceptor", interceptor);
      ("smart", smart);
      ("adapter", adapter);
      ("naming_registry", naming_registry);
      ("naming_resolver", naming_resolver);
      ("mux", mux);
      ("breaker", breaker);
      ("mem_registry", mem_registry);
      ("mem_listener", mem_listener);
      ("tcp_channel", tcp_channel);
      ("pipe", pipe);
      ("fault", fault);
      ("metrics", metrics);
      ("trace_ids", trace_ids);
      ("objref_cache", objref_cache);
      ("obs", obs);
      ("sinks", sinks);
    ]
end

type t = {
  l_name : string;
  l_rank : int;
  l_mutex : Mutex.t;
  l_cond : Condition.t;
}

type cond = { c_owner : t; c_cond : Condition.t }

exception Rank_violation of string

let () =
  Printexc.register_printer (function
    | Rank_violation m -> Some (Printf.sprintf "Locked.Rank_violation: %s" m)
    | _ -> None)

(* ---------------- the runtime checker ---------------- *)

let checking_flag =
  Atomic.make
    (match Sys.getenv_opt "ORB_LOCK_CHECK" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_checking b = Atomic.set checking_flag b
let checking () = Atomic.get checking_flag

(* Internal bookkeeping state. These are deliberately raw primitives —
   the checker cannot be built on top of itself — and this module is
   the one place C403/C407 exempts.

   Held-rank stacks are keyed by (domain, thread), not by thread id
   alone: each domain runs its own threads library instance, so a
   worker domain's threads can report ids that collide with the main
   domain's readers. Under a thread-only key two innocent threads on
   different domains would share one stack and the checker would
   report phantom inversions. *)
let reg_mutex = Mutex.create ()
let held : (int * int, (int * string) list) Hashtbl.t = Hashtbl.create 64
let violation_log : string list ref = ref []

let violations () = Mutex.protect reg_mutex (fun () -> !violation_log)
let reset_violations () =
  Mutex.protect reg_mutex (fun () -> violation_log := [])

let domain_id () = (Domain.self () :> int)
let self_id () = (domain_id (), Thread.id (Thread.self ()))

let stack_of id =
  Mutex.protect reg_mutex (fun () ->
      Option.value (Hashtbl.find_opt held id) ~default:[])

let set_stack id st =
  Mutex.protect reg_mutex (fun () ->
      if st = [] then Hashtbl.remove held id else Hashtbl.replace held id st)

let record_violation msg =
  Mutex.protect reg_mutex (fun () ->
      violation_log := msg :: !violation_log);
  raise (Rank_violation msg)

(* Called before blocking on [l.l_mutex]: the would-be acquisition must
   sit strictly below the newest lock this thread already holds. *)
let check_push l =
  let ((d, th) as id) = self_id () in
  let st = stack_of id in
  (match st with
  | (top_rank, top_name) :: _ when l.l_rank >= top_rank ->
      record_violation
        (Printf.sprintf
           "domain %d thread %d acquiring %S (rank %d) while holding %S \
            (rank %d): acquisition order must strictly descend ranks"
           d th l.l_name l.l_rank top_name top_rank)
  | _ -> ());
  set_stack id ((l.l_rank, l.l_name) :: st)

let check_pop l =
  let id = self_id () in
  match stack_of id with
  | (r, n) :: rest when r = l.l_rank && n = l.l_name -> set_stack id rest
  | st ->
      (* Release out of acquisition order (or stack lost to a checking
         toggle mid-hold): drop the first matching entry, quietly. *)
      let rec drop = function
        | [] -> []
        | (r, n) :: rest when r = l.l_rank && n = l.l_name -> rest
        | e :: rest -> e :: drop rest
      in
      set_stack id (drop st)

(* Waiting on a condition releases its lock; the lock must be the
   newest one held (waiting with a *nested* inner lock still held
   would block the whole lattice below us). *)
let check_wait l what =
  let ((d, th) as id) = self_id () in
  match stack_of id with
  | (r, n) :: _ when r = l.l_rank && n = l.l_name -> ()
  | (_, top_name) :: _ ->
      record_violation
        (Printf.sprintf
           "domain %d thread %d waiting on %s of %S while %S is the newest \
            held lock"
           d th what l.l_name top_name)
  | [] ->
      record_violation
        (Printf.sprintf
           "domain %d thread %d waiting on %s of %S without holding it" d th
           what l.l_name)

(* ---------------- the lock itself ---------------- *)

let create ~name ~rank =
  { l_name = name; l_rank = rank; l_mutex = Mutex.create ();
    l_cond = Condition.create () }

let name l = l.l_name
let rank l = l.l_rank

let with_lock l f =
  if Atomic.get checking_flag then begin
    check_push l;
    match
      Mutex.lock l.l_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock l.l_mutex) f
    with
    | v -> check_pop l; v
    | exception e -> check_pop l; raise e
  end
  else begin
    Mutex.lock l.l_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock l.l_mutex) f
  end

let wait l =
  if Atomic.get checking_flag then check_wait l "intrinsic condition";
  Condition.wait l.l_cond l.l_mutex

let signal l = Condition.signal l.l_cond
let broadcast l = Condition.broadcast l.l_cond

let new_cond l = { c_owner = l; c_cond = Condition.create () }

let wait_c c =
  if Atomic.get checking_flag then check_wait c.c_owner "condition";
  Condition.wait c.c_cond c.c_owner.l_mutex

let signal_c c = Condition.signal c.c_cond
let broadcast_c c = Condition.broadcast c.c_cond

(* ---------------- timed waits: the deadline service ---------------- *)

(* OCaml's [Condition] has no timed wait. [wait_until] gets one from a
   single process-wide service thread: it keeps a min-heap of
   (absolute deadline, waiter) and broadcasts a waiter's condition when
   its deadline passes. Waiters always re-check their predicate, so a
   broadcast that arrives for any reason is only ever a spurious wakeup.

   No lost wakeups. A waiter registers its heap entry while holding its
   own lock [L] and keeps holding [L] until [Condition.wait] releases it
   atomically. The service pops a due entry under the heap lock,
   releases the heap lock, and only then takes [L] to broadcast, so it
   cannot get [L] before the waiter is parked (or has already woken and
   moved on): the broadcast always lands.

   Lock order. The heap lock is innermost. A waiter takes it while
   holding [L]; the service never holds it while taking any [L]. It is
   a raw mutex outside the rank table, and nothing is acquired under
   it.

   Cost. A waiter removes its own entry when it wakes, so a call that
   finished leaves nothing behind to fire. The service sleeps in
   [Unix.select] on a self-pipe until the earliest deadline; a waiter
   writes to the pipe only when its deadline is earlier than that sleep
   target, which calls with equal budgets almost never are — no syscall
   per wait. The service never sleeps longer than [deadline_linger], so
   it notices an empty heap within one linger; after a further linger
   with the heap still empty it exits (closing the pipe), and the next
   registration starts a fresh one. The thread belongs to the domain that started it, and a
   domain's join waits for its threads, so a worker domain that started
   the service is reclaimed once the service idles out. *)

type timer = {
  tm_at : float;
  tm_mutex : Mutex.t;
  tm_cond : Condition.t;
  mutable tm_slot : int;  (* heap index; -1 once fired or removed *)
}

type service = {
  mutable heap : timer array;
  mutable len : int;
  mutable running : bool;
  mutable target : float;  (* when the sleeping service next wakes *)
  mutable wake : Unix.file_descr option;  (* self-pipe write end *)
}

let deadline_linger = 0.5
let svc_mutex = Mutex.create ()

let svc =
  { heap = [||]; len = 0; running = false; target = neg_infinity; wake = None }

let no_timer =
  { tm_at = infinity; tm_mutex = Mutex.create (); tm_cond = Condition.create ();
    tm_slot = -1 }

(* Heap operations: callers hold [svc_mutex]. *)
let heap_set i tm =
  svc.heap.(i) <- tm;
  tm.tm_slot <- i

let rec sift_up i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let x = svc.heap.(i) and y = svc.heap.(p) in
    if x.tm_at < y.tm_at then begin
      heap_set p x;
      heap_set i y;
      sift_up p
    end
  end

let rec sift_down i =
  let l = (2 * i) + 1 in
  if l < svc.len then begin
    let c =
      if l + 1 < svc.len && svc.heap.(l + 1).tm_at < svc.heap.(l).tm_at then
        l + 1
      else l
    in
    let x = svc.heap.(i) and y = svc.heap.(c) in
    if y.tm_at < x.tm_at then begin
      heap_set i y;
      heap_set c x;
      sift_down c
    end
  end

let heap_push tm =
  if svc.len = Array.length svc.heap then begin
    let bigger = Array.make (max 16 (2 * svc.len)) no_timer in
    Array.blit svc.heap 0 bigger 0 svc.len;
    svc.heap <- bigger
  end;
  heap_set svc.len tm;
  svc.len <- svc.len + 1;
  sift_up tm.tm_slot

let heap_remove tm =
  let i = tm.tm_slot in
  if i >= 0 then begin
    tm.tm_slot <- -1;
    svc.len <- svc.len - 1;
    let last = svc.heap.(svc.len) in
    svc.heap.(svc.len) <- no_timer;
    if i < svc.len then begin
      heap_set i last;
      sift_up i;
      sift_down last.tm_slot
    end
  end

let drain_pipe r =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let rec service_loop r ~idle_since =
  Mutex.lock svc_mutex;
  let now = Unix.gettimeofday () in
  let rec take_due acc =
    if svc.len > 0 && svc.heap.(0).tm_at <= now then begin
      let tm = svc.heap.(0) in
      heap_remove tm;
      take_due (tm :: acc)
    end
    else acc
  in
  match take_due [] with
  | _ :: _ as due ->
      Mutex.unlock svc_mutex;
      (* The heap lock is released: taking a waiter's lock now cannot
         invert against a waiter that holds it while registering. *)
      List.iter
        (fun tm ->
          Mutex.lock tm.tm_mutex;
          Condition.broadcast tm.tm_cond;
          Mutex.unlock tm.tm_mutex)
        due;
      service_loop r ~idle_since:None
  | [] ->
      let idle_since =
        if svc.len > 0 then None else Some (Option.value idle_since ~default:now)
      in
      (match idle_since with
      | Some t0 when now -. t0 >= deadline_linger ->
          svc.running <- false;
          Option.iter Unix.close svc.wake;
          svc.wake <- None;
          Unix.close r;
          Mutex.unlock svc_mutex
      | _ ->
          (* Never asleep longer than the linger: a heap emptied by
             waiters that woke early is noticed within one linger, and a
             far-off (or infinite) deadline is still a finite select. *)
          let target =
            match idle_since with
            | Some t0 -> t0 +. deadline_linger
            | None -> Float.min svc.heap.(0).tm_at (now +. deadline_linger)
          in
          svc.target <- target;
          Mutex.unlock svc_mutex;
          (match Unix.select [ r ] [] [] (Float.max 0. (target -. now)) with
          | r' :: _, _, _ -> drain_pipe r'
          | [], _, _ -> ()
          | exception Unix.Unix_error _ -> ());
          service_loop r ~idle_since)

let start_service () =
  let r, w = Unix.pipe ~cloexec:true () in
  match
    Unix.set_nonblock r;
    Unix.set_nonblock w;
    Thread.create (fun () -> service_loop r ~idle_since:None) ()
  with
  | _ ->
      svc.running <- true;
      svc.wake <- Some w;
      (* Not asleep yet: the new thread computes its first target from
         the heap, so no registration needs to wake it. *)
      svc.target <- neg_infinity
  | exception e ->
      Unix.close r;
      Unix.close w;
      raise e

let register tm =
  Mutex.protect svc_mutex (fun () ->
      if not svc.running then start_service ()
      else if tm.tm_at < svc.target then begin
        match svc.wake with
        | Some w -> (
            (* Non-blocking: a full pipe already holds a pending wakeup. *)
            try ignore (Unix.single_write_substring w "!" 0 1)
            with Unix.Unix_error _ -> ())
        | None -> ()
      end;
      heap_push tm)

let unregister tm =
  Mutex.lock svc_mutex;
  heap_remove tm;
  Mutex.unlock svc_mutex

let deadline_service_running () =
  Mutex.protect svc_mutex (fun () -> svc.running)

let timed_wait mutex cond at =
  if Unix.gettimeofday () >= at then `Timed_out
  else begin
    let tm = { tm_at = at; tm_mutex = mutex; tm_cond = cond; tm_slot = -1 } in
    register tm;
    (match Condition.wait cond mutex with
    | () -> ()
    | exception e ->
        unregister tm;
        raise e);
    unregister tm;
    if Unix.gettimeofday () >= at then `Timed_out else `Woken
  end

let wait_until l at =
  if Atomic.get checking_flag then check_wait l "intrinsic condition";
  timed_wait l.l_mutex l.l_cond at

let wait_until_c c at =
  if Atomic.get checking_flag then check_wait c.c_owner "condition";
  timed_wait c.c_owner.l_mutex c.c_cond at

(* ---------------- threads and domains ---------------- *)

let spawn _name f =
  Thread.create
    (fun () ->
      (try f () with _ -> ());
      if Atomic.get checking_flag then set_stack (self_id ()) [])
    ()

let spawn_domain _name f =
  Domain.spawn (fun () ->
      (try f () with _ -> ());
      (* The checker's stack entry for this (domain, thread) key would
         otherwise outlive the domain; domain ids are recycled, so a
         stale entry could frame an unrelated future domain. *)
      if Atomic.get checking_flag then set_stack (self_id ()) [])

(* ---------------- domain-local storage ---------------- *)

(* The sanctioned Domain.DLS access point (raw Domain.DLS outside this
   module is a C407): per-domain state such as the trace-id RNG lives
   behind these, so the analyzer has one place to trust and callers
   never touch split-orphan DLS keys directly. *)

type 'a domain_local = 'a Domain.DLS.key

let new_domain_local init = Domain.DLS.new_key init
let domain_local_get k = Domain.DLS.get k
