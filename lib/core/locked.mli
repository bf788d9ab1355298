(** Named, ranked locks — the ORB's declared locking policy.

    Every runtime lock in [lib/orb/] and [lib/obs/] is a [Locked.t]
    created with a name and a rank from the central {!Rank} table.
    Acquisition order must strictly *descend* ranks: while holding a
    lock of rank [r], a thread may only acquire locks of rank [< r].
    The table below is the single source of truth; the static analyzer
    ([idlc analyze-conc], C401–C406) and the optional runtime checker
    both enforce it.

    The runtime checker (per-thread held-rank stack) is off by default
    and costs one atomic boolean load per acquisition when disabled.
    Enable it with {!set_checking} or the [ORB_LOCK_CHECK=1]
    environment variable; the test suite and the [@fuzz] alias run
    with it on. *)

module Rank : sig
  (* Higher rank = acquired first (outermost). While holding rank [r],
     only locks of rank [< r] may be taken. *)

  val communicator : int (* 70 — per-connection send locks *)
  val pool : int (* 60 — server worker pool queue *)
  val connection_cache : int (* 50 — ORB state: conns, counters, rng *)
  val interceptor : int (* 47 — interceptor chains and counters *)
  val smart : int (* 46 — smart-proxy memo tables *)
  val adapter : int (* 45 — object adapter servant table *)
  val naming_registry : int (* 44 — naming lease registry *)
  val naming_resolver : int (* 43 — client-side resolve cache *)
  val mux : int (* 40 — per-connection reply demultiplexer *)
  val breaker : int (* 30 — per-endpoint circuit breakers *)
  val mem_registry : int (* 28 — in-memory transport port table *)
  val mem_listener : int (* 26 — in-memory listener accept queue *)
  val tcp_channel : int (* 25 — tcp channel/listener close guards *)
  val pipe : int (* 24 — in-memory byte pipes *)
  val fault : int (* 23 — fault-injection plans; stalled-read gates *)
  val metrics : int (* 20 — Obs histogram/counter tables *)
  val trace_ids : int (* 15 — trace/span id generator *)
  val objref_cache : int (* 12 — memoized Objref.to_string cache *)
  val obs : int (* 11 — Obs facade: sink list, span counter *)
  val sinks : int (* 10 — individual sink buffers (innermost) *)

  val all : (string * int) list
  (** Every registered rank, [(name, rank)], outermost first. The
      analyzer resolves [~rank:Rank.x] against this table; a rank not
      listed here is a C406. *)
end

type t
(** A mutex with an intrinsic condition variable, a name, and a rank. *)

val create : name:string -> rank:int -> t
val name : t -> string
val rank : t -> int

val with_lock : t -> (unit -> 'a) -> 'a
(** Acquire, run, release (exception-safe). When checking is on,
    raises {!Rank_violation} if the calling thread already holds a
    lock of rank [<=] this one. *)

val wait : t -> unit
(** Wait on the lock's intrinsic condition. Must be called from within
    {!with_lock} on the same lock. *)

val signal : t -> unit
val broadcast : t -> unit

type cond
(** An extra condition variable bound to a [t], for locks that need
    more than one wait-set (e.g. the pool's [nonempty]/[change]). *)

val new_cond : t -> cond
val wait_c : cond -> unit
val signal_c : cond -> unit
val broadcast_c : cond -> unit

(** {2 Deadline waits} *)

val wait_until : t -> float -> [ `Woken | `Timed_out ]
(** [wait_until l at] waits on [l]'s intrinsic condition until it is
    signalled or the absolute [Unix.gettimeofday] instant [at] passes,
    whichever comes first. Must be called from within {!with_lock} on
    [l]. Returns [`Timed_out] iff the clock reads [>= at] on return; a
    deadline already in the past returns at once without parking.
    [`Woken] may be spurious (any broadcast on [l], including another
    waiter's deadline): callers re-check their predicate, as with
    {!wait}.

    The deadline is served by one process-wide service thread that
    keeps a min-heap of pending deadlines and broadcasts a waiter's
    condition, holding the waiter's lock and nothing else, once its
    deadline passes. The waiter registers while holding [l] and parks
    in the same critical section, so that broadcast cannot be lost. The
    heap lock is innermost: taken under [l], never the other way round.
    A waiter that wakes early removes its entry. The service wakes at
    least every {!deadline_linger} seconds, and exits once the heap has
    stayed empty for that long (so within two lingers of the last
    pending deadline going away). *)

val wait_until_c : cond -> float -> [ `Woken | `Timed_out ]
(** {!wait_until} on an extra condition; must be called holding the
    condition's owning lock. *)

val deadline_linger : float
(** Seconds the deadline service stays alive with no pending deadline
    before its thread exits; also its longest sleep. *)

val deadline_service_running : unit -> bool
(** Whether the deadline service thread is currently alive. *)

val spawn : string -> (unit -> unit) -> Thread.t
(** [spawn name f] starts a thread running [f]. The sanctioned
    thread-creation point — raw [Thread.create] outside this module is
    a C403. Exceptions escaping [f] are swallowed (thread bodies own
    their error handling); the checker's per-thread rank stack is
    discarded when the thread exits. *)

val spawn_domain : string -> (unit -> unit) -> unit Domain.t
(** [spawn_domain name f] starts a domain running [f] — the sanctioned
    domain-creation point (raw [Domain.spawn] outside this module is a
    C407). Same exception and rank-stack contract as {!spawn}. The
    checker keys held-rank stacks by [(domain, thread)], so locks taken
    on a worker domain are tracked independently of same-id threads on
    other domains. Join the returned handle (or hand it to a reaper)
    so the runtime's domain slot is reclaimed. *)

val domain_id : unit -> int
(** Numeric id of the calling domain (0 = the main domain). Exposed so
    domain-aware seeding (e.g. trace-id RNGs) need not touch [Domain]
    directly. *)

type 'a domain_local
(** A per-domain cell: each domain sees its own value, created lazily
    by the init function on first access from that domain. The
    sanctioned [Domain.DLS] access point — raw DLS outside locked.ml
    is a C407. *)

val new_domain_local : (unit -> 'a) -> 'a domain_local
(** [new_domain_local init] registers a new per-domain cell. [init]
    runs once per domain, in that domain, on first {!domain_local_get};
    it may call {!domain_id} to vary the value per domain. *)

val domain_local_get : 'a domain_local -> 'a

exception Rank_violation of string

val set_checking : bool -> unit
(** Turn the runtime lock-order checker on/off (default: off, or on if
    [ORB_LOCK_CHECK=1] in the environment). *)

val checking : unit -> bool

val violations : unit -> string list
(** Violations recorded so far (newest first). [Rank_violation] is
    raised at the offending acquisition *and* recorded here, so tests
    can assert emptiness after a run even when an intervening handler
    swallowed the exception. *)

val reset_violations : unit -> unit
