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

   Deadline-bounded waits (Block admission, [drain]) park on the pool's
   [change] condition with [Locked.wait_until_c]: a freed slot or a
   finished job wakes them at once, and the deadline service wakes them
   when the deadline passes. Each wakeup re-runs the whole admission
   decision under the lock, so a deadline and a freed slot racing each
   other resolve exactly as if they had arrived in either order. *)

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

(* A queued job and what to do with it if the pool is stopped before a
   worker picks it up. The cancel callback must answer the peer (a
   system-error reply) so a pipelined client is not left waiting out
   its call deadline on a request that silently evaporated. *)
type job = { run : unit -> unit; cancel : unit -> unit }

type t = {
  config : config;
  lock : Locked.t;  (* rank [pool] *)
  nonempty : Locked.cond;  (* workers park here waiting for jobs *)
  change : Locked.cond;  (* space freed / job finished / state flipped *)
  queue : job Queue.t;
  mutable accepting : bool;
  mutable stopping : bool;
  mutable active : int;  (* jobs currently executing *)
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable domains : unit Domain.t list;  (* worker handles; Domains only *)
}

let rec worker_loop t =
  let job =
    Locked.with_lock t.lock (fun () ->
        let rec next () =
          if not (Queue.is_empty t.queue) then begin
            let job = Queue.pop t.queue in
            t.active <- t.active + 1;
            (* Queue space freed: wake blocked submitters. *)
            Locked.broadcast_c t.change;
            Some job
          end
          else if t.stopping then None
          else begin
            Locked.wait_c t.nonempty;
            next ()
          end
        in
        next ())
  in
  match job with
  | None -> ()  (* stopped and drained: the worker exits *)
  | Some job ->
      (* A job failing must never kill its worker: the job itself is
         responsible for error replies; residual exceptions here mean
         the connection died under it. *)
      (try job.run () with _ -> ());
      Locked.with_lock t.lock (fun () ->
          t.active <- t.active - 1;
          t.completed <- t.completed + 1;
          Locked.broadcast_c t.change);
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
      accepting = true;
      stopping = false;
      active = 0;
      submitted = 0;
      completed = 0;
      rejected = 0;
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
  let job = { run; cancel } in
  (* [expire] — the request's own remaining-budget instant — bounds
     EVERY blocking wait: an admission policy must never park a reader
     past the moment the caller gives up, so the effective wait deadline
     is the min of the admission deadline and the expiry, and a lapsed
     expiry is reported as [`Expired], distinct from an overload
     rejection. *)
  let deadline =
    match t.config.admission with
    | Block (Some s) ->
        let d = Unix.gettimeofday () +. s in
        Some (match expire with Some x -> Float.min d x | None -> d)
    | _ -> None
  in
  Locked.with_lock t.lock (fun () ->
      let accept () =
        Queue.push job t.queue;
        t.submitted <- t.submitted + 1;
        Locked.signal_c t.nonempty;
        `Accepted
      in
      let reject reason =
        t.rejected <- t.rejected + 1;
        `Rejected reason
      in
      let expired () =
        t.rejected <- t.rejected + 1;
        `Expired
      in
      let has_space () = Queue.length t.queue < t.config.queue_capacity in
      let rec attempt () =
        if (match expire with Some x -> Unix.gettimeofday () >= x | None -> false)
        then expired ()
        else if not t.accepting then
          reject refused_draining
        else if has_space () then accept ()
        else
          match t.config.admission with
          | Reject -> reject "overloaded: request queue is full"
          | Block None -> (
              match expire with
              | None ->
                  Locked.wait_c t.change;
                  attempt ()
              | Some x ->
                  (* No admission deadline, but the request itself has
                     one: the next attempt reports the lapse. *)
                  ignore (Locked.wait_until_c t.change x);
                  attempt ())
          | Block (Some _) -> (
              match deadline with
              | None -> assert false  (* deadline set above for Block Some *)
              | Some d ->
                  if Unix.gettimeofday () >= d then
                    reject "overloaded: queue full past admission deadline"
                  else begin
                    ignore (Locked.wait_until_c t.change d);
                    attempt ()
                  end)
      in
      attempt ())

let depth t = Locked.with_lock t.lock (fun () -> Queue.length t.queue)
let active t = Locked.with_lock t.lock (fun () -> t.active)

type stats = { submitted : int; completed : int; rejected : int }

let stats t =
  Locked.with_lock t.lock (fun () ->
      { submitted = t.submitted; completed = t.completed; rejected = t.rejected })

let drain t ~deadline =
  Locked.with_lock t.lock (fun () ->
      t.accepting <- false;
      (* Wake submitters blocked on admission so they observe the drain
         and reject instead of waiting on space that may never free. *)
      Locked.broadcast_c t.change);
  Locked.with_lock t.lock (fun () ->
      let rec wait () =
        if Queue.is_empty t.queue && t.active = 0 then `Drained
        else
          match deadline with
          | None ->
              Locked.wait_c t.change;
              wait ()
          | Some d ->
              if Unix.gettimeofday () >= d then
                `Aborted (Queue.length t.queue + t.active)
              else begin
                ignore (Locked.wait_until_c t.change d);
                wait ()
              end
      in
      wait ())

let stop t =
  let dropped, handles =
    Locked.with_lock t.lock (fun () ->
        t.accepting <- false;
        t.stopping <- true;
        let dropped = List.rev (Queue.fold (fun acc j -> j :: acc) [] t.queue) in
        Queue.clear t.queue;
        Locked.broadcast_c t.nonempty;
        Locked.broadcast_c t.change;
        let hs = t.domains in
        t.domains <- [];
        (dropped, hs))
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
  List.length dropped
