(* A bounded worker pool with explicit admission control — the server's
   overload policy, separated from dispatch logic in the spirit of the
   paper's "policy is configuration, not code". Connection reader
   threads decode requests and [submit] them here; a fixed set of
   workers executes them. The queue is bounded, and what happens at the
   bound is the admission policy: reject immediately (shed load, keep
   latency) or block the submitting reader (backpressure through the
   transport) up to a deadline.

   Workers come in two shapes. [Domains] (the default) runs one OCaml
   domain per worker: CPU-bound dispatches execute in parallel on
   separate cores instead of time-slicing one runtime lock — the model
   bench E13 measures. [Systhreads] keeps the historical
   one-runtime-lock pool, retained as the flatline control and for
   configurations that want many more workers than cores (e.g. purely
   I/O-bound servants). The queue between reader threads and workers is
   the same either way: OCaml 5's [Mutex]/[Condition] (via [Locked])
   synchronize threads and domains alike, so admission semantics are
   identical across backends.

   Every decision is [Core]'s: a plain function of the pool's state and
   [~now] that returns a verdict. The rest is mechanism: the queue, its
   two conditions and the workers, each acting on a verdict under the
   pool lock. A wait that cannot pass a deadline parks on the [change]
   condition with [Locked.wait_until_c] and re-decides on every wakeup,
   so a deadline and a freed slot racing each other resolve exactly as
   if they had arrived in either order. *)

type admission = Reject | Block of float option
type backend = Systhreads | Domains

type config = {
  workers : int;
  queue_capacity : int;
  admission : admission;
  backend : backend;
}

(* One worker per core (why: pool.mli). The floor keeps a second worker
   for a servant that calls back into its own ORB on a 1-core host; the
   cap keeps a process hosting several started ORBs well clear of the
   runtime's live-domain limit. *)
let default_config =
  {
    workers = min 8 (max 2 (Domain.recommended_domain_count ()));
    queue_capacity = 64;
    admission = Reject;
    backend = Domains;
  }

let refused_draining = "draining: not accepting new requests"
let refused_cancelled = "shutting down: request dropped before execution"
let never_executed reason =
  reason = refused_draining || reason = refused_cancelled

module Core = struct
  type t = { mutable stopped : bool; mutable queued : int; mutable active : int }
  type admit = Accept | Refuse of string | Expire | Wait
  type pickup = Take | Idle | Exit

  let create () = { stopped = false; queued = 0; active = 0 }
  let lapsed at ~now = match at with Some x -> now >= x | None -> false

  let submit cfg c ~expire ~deadline ~now =
    if lapsed expire ~now then Expire
    else if c.stopped then Refuse refused_draining
    else if c.queued < cfg.queue_capacity then begin
      c.queued <- c.queued + 1;
      Accept
    end
    else
      match cfg.admission with
      | Reject -> Refuse "overloaded: request queue is full"
      | Block _ when lapsed deadline ~now ->
          Refuse "overloaded: queue full past admission deadline"
      | Block _ -> Wait

  let pickup c =
    if c.queued > 0 then begin
      c.queued <- c.queued - 1;
      c.active <- c.active + 1;
      Take
    end
    else if c.stopped then Exit
    else Idle

  let finish c = c.active <- c.active - 1

  let stop c =
    let dropped = c.queued in
    c.stopped <- true;
    c.queued <- 0;
    dropped
end

(* A queued job and what to do with it if the pool is stopped before a
   worker picks it up. The cancel callback must answer the peer (a
   system-error reply) so a pipelined client is not left waiting out
   its call deadline on a request that silently evaporated. *)
type job = { run : unit -> unit; cancel : unit -> unit }

type t = {
  config : config;
  lock : Locked.t;  (* rank [pool] *)
  nonempty : Locked.cond;  (* workers park here waiting for jobs *)
  change : Locked.cond;  (* space freed / stopped *)
  queue : job Queue.t;  (* [core.queued] jobs *)
  core : Core.t;
  mutable domains : unit Domain.t list;  (* worker handles; Domains only *)
}

(* Parks on [change] until [at] (forever if [None]) and returns the
   latest instant known to have passed: [at] once the wait timed out,
   else [now]. A wait needs no clock read of its own. *)
let park t at ~now =
  match at with
  | None ->
      Locked.wait_c t.change;
      now
  | Some at -> (
      match Locked.wait_until_c t.change at with
      | `Woken -> now
      | `Timed_out -> Float.max now at)

let earliest a b =
  match (a, b) with
  | Some x, Some y -> Some (Float.min x y)
  | Some _, None -> a
  | None, _ -> b

let rec worker_loop t =
  let job =
    Locked.with_lock t.lock (fun () ->
        let rec next () =
          match Core.pickup t.core with
          | Core.Take ->
              (* Queue space freed: wake blocked submitters. *)
              Locked.broadcast_c t.change;
              Some (Queue.pop t.queue)
          | Core.Exit -> None
          | Core.Idle ->
              Locked.wait_c t.nonempty;
              next ()
        in
        next ())
  in
  match job with
  | None -> ()  (* stopped with nothing queued: the worker exits *)
  | Some job ->
      (* A job failing must never kill its worker: the job itself is
         responsible for error replies; residual exceptions here mean
         the connection died under it. *)
      (try job.run () with _ -> ());
      Locked.with_lock t.lock (fun () -> Core.finish t.core);
      worker_loop t

let create config =
  let config =
    {
      config with
      workers = max 1 config.workers;
      queue_capacity = max 1 config.queue_capacity;
    }
  in
  let lock = Locked.create ~name:"pool" ~rank:Locked.Rank.pool in
  let t =
    {
      config;
      lock;
      nonempty = Locked.new_cond lock;
      change = Locked.new_cond lock;
      queue = Queue.create ();
      core = Core.create ();
      domains = [];
    }
  in
  (match config.backend with
  | Systhreads ->
      for _ = 1 to config.workers do
        ignore (Locked.spawn "pool.worker" (fun () -> worker_loop t))
      done
  | Domains ->
      t.domains <-
        List.init config.workers (fun _ ->
            Locked.spawn_domain "pool.worker" (fun () -> worker_loop t)));
  t

let submit t ?(cancel = fun () -> ()) ?expire run =
  (* [expire] — the request's own remaining-budget instant — bounds
     every Block wait: an admission policy must never park a reader
     past the moment the caller gives up, and a budget that lapses
     while the reader waits is reported as [`Expired], distinct from an
     overload rejection. No instant is known to have passed on entry
     ([neg_infinity]): the caller checked the expiry on arrival. *)
  let deadline =
    match t.config.admission with
    | Block (Some s) -> Some (Unix.gettimeofday () +. s)
    | Block None | Reject -> None
  in
  Locked.with_lock t.lock (fun () ->
      let rec go now =
        match Core.submit t.config t.core ~expire ~deadline ~now with
        | Core.Accept ->
            Queue.push { run; cancel } t.queue;
            Locked.signal_c t.nonempty;
            `Accepted
        | Core.Refuse reason -> `Rejected reason
        | Core.Expire -> `Expired
        | Core.Wait -> go (park t (earliest deadline expire) ~now)
      in
      go neg_infinity)

let depth t = Locked.with_lock t.lock (fun () -> t.core.Core.queued)
let active t = Locked.with_lock t.lock (fun () -> t.core.Core.active)

let stop t =
  let n, dropped, handles =
    Locked.with_lock t.lock (fun () ->
        let n = Core.stop t.core in
        let dropped = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        Locked.broadcast_c t.nonempty;
        Locked.broadcast_c t.change;
        let hs = t.domains in
        t.domains <- [];
        (n, dropped, hs))
  in
  (* Cancel dropped jobs OUTSIDE the pool lock, in submission order: a
     cancel sends an error reply, which takes the connection's write
     lock (rank communicator, above pool) and may block on the
     transport — both forbidden under the pool lock. *)
  List.iter (fun j -> try j.cancel () with _ -> ()) dropped;
  (* Workers are not joined here: one may be executing a job blocked on
     I/O that only the caller's next step (closing the connections)
     unblocks. Idle workers exit immediately; busy ones exit after
     their current job. Domain workers still need a join eventually —
     the runtime caps live domains — so a detached reaper joins the
     handles as the workers wind down. *)
  (match handles with
  | [] -> ()
  | handles ->
      ignore
        (Locked.spawn "pool.reaper" (fun () -> List.iter Domain.join handles)));
  n
