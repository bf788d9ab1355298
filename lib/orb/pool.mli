(** A bounded worker pool with explicit admission control — the server's
    overload policy (see DESIGN.md "Server model and overload policy").

    Connection reader threads decode requests and {!submit} them; a
    fixed set of workers executes them. The pending queue is bounded;
    the {!admission} policy decides what happens at the bound, and the
    {!backend} decides what a worker is: an OCaml domain (parallel
    dispatch, the default) or a systhread (one shared runtime lock,
    kept as the E13 control and for I/O-bound workloads that want more
    workers than cores). The pool has no drain: shutdown's grace window
    waits on [Admit]'s count of unanswered requests, in either server
    mode, and then calls {!stop}. *)

type admission =
  | Reject
      (** Shed load: a submit against a full queue fails immediately —
          the server answers ["overloaded"] and stays responsive. *)
  | Block of float option
      (** Backpressure: the submitting reader blocks until queue space
          frees, at most the given seconds ([None] = indefinitely).
          Blocking the reader stops that connection's intake, pushing
          the overload back through the transport to the client. *)

type backend =
  | Systhreads
      (** One systhread per worker: workers share the spawning domain's
          runtime lock, so they overlap waiting but not compute. *)
  | Domains
      (** One domain per worker: CPU-bound jobs run in parallel on
          separate cores. Worker domains are joined by a detached
          reaper after {!stop}; keep [workers] within the same order
          as the machine's cores — the runtime caps live domains. *)

type config = {
  workers : int;  (** Worker count (min 1). *)
  queue_capacity : int;  (** Pending-request bound (min 1). *)
  admission : admission;
  backend : backend;
}

val default_config : config
(** [min 8 (max 2 (Domain.recommended_domain_count ()))] workers, 64
    queued requests, [Reject] admission, [Domains]. One worker per core:
    each domain has its own minor heap and takes part in every
    stop-the-world minor collection, so more domains than cores only
    add GC cost. The floor of 2 leaves a servant that calls back into
    its own ORB a second worker on a 1-core host. Servants that block or
    nap should use [Systhreads] or set [workers] explicitly. *)

val refused_draining : string
(** The reason a draining server gives for a request it refused at
    intake, and a stopped pool for a submit. *)

val refused_cancelled : string
(** The reason a stopping server gives for a queued request that {!stop}
    cancelled. *)

val never_executed : string -> bool
(** [true] for {!refused_draining} and {!refused_cancelled}: refusals
    that guarantee the job never ran, so a client may re-send the
    request without risking a duplicate. Overload refusals are not
    among them. *)

(** The pool's decisions, with no lock, no clock and no I/O (time is
    the caller's [~now]). The pool acts on each verdict under its lock;
    [test/test_state_machines.ml] runs them through every interleaving
    of small event sets. Nothing here is a count of past events: those
    are the ORB's, in its [Obs] registry. *)
module Core : sig
  type t = private {
    mutable stopped : bool;
    mutable queued : int;
    mutable active : int;
  }
  (** [queued] jobs wait in the queue, [active] run on workers; once
      [stopped] ({!stop}), every submit is refused and workers exit when
      the queue is empty. *)

  type admit =
    | Accept  (** queue it: counted in [queued] *)
    | Refuse of string
    | Expire  (** the request's own budget lapsed first *)
    | Wait  (** [Block] admission: park until space, the deadline or
                the expiry, then decide again *)

  type pickup = Take | Idle | Exit

  val create : unit -> t

  val submit :
    config -> t -> expire:float option -> deadline:float option -> now:float -> admit
  (** The expiry, then [stopped], then space, then the admission policy
      ([deadline] is the [Block] admission deadline). *)

  val pickup : t -> pickup
  (** A worker looking for work: take the head job (counted [active]),
      park, or exit once stopped with nothing queued. *)

  val finish : t -> unit
  (** A taken job returned. *)

  val stop : t -> int
  (** Stop, and drop the queue: returns how many jobs it held. *)
end

type t

val create : config -> t
(** Create the pool and start its workers. *)

val submit :
  t ->
  ?cancel:(unit -> unit) ->
  ?expire:float ->
  (unit -> unit) ->
  [ `Accepted | `Rejected of string | `Expired ]
(** Enqueue a job, subject to admission control. [`Rejected reason]
    when the queue is full (under [Reject], or past the [Block]
    deadline) or the pool is stopped. The job must not raise;
    residual exceptions are swallowed to protect the worker.

    [expire] is the request's own remaining-budget instant (absolute,
    [Unix.gettimeofday] domain; the caller checks it at arrival): no
    [Block] admission wait ever parks past it — the effective wait
    bound is the min of the admission deadline and [expire] — and a
    budget that lapses while the submit waits returns [`Expired],
    distinct from an overload [`Rejected], so the server can answer
    "expired" rather than "overloaded".

    [cancel] runs (at most once, never together with the job) if the
    pool is stopped while the job is still queued: the submitter's
    chance to answer the peer — e.g. a system-error reply — instead of
    silently discarding an admitted request. It is called outside the
    pool lock and may perform I/O. *)

val depth : t -> int
(** Currently queued (not yet started) jobs. *)

val active : t -> int
(** Jobs currently executing. *)

val stop : t -> int
(** Stop immediately: discard queued jobs — running each one's [cancel]
    callback first, in submission order — and return how many were
    dropped. Running jobs finish; workers then shut down (domain
    workers are joined by a detached reaper so their runtime slots are
    reclaimed). Does not block on the workers — a running job may be
    blocked on I/O the caller is about to unblock (e.g. by closing
    connections). Idempotent. *)
