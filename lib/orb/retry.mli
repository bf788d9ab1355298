(** Retry policies for remote invocation.

    Distribution policy — including failure handling — belongs in a
    configurable layer, not hardcoded at call sites (cf. RAFDA). A
    {!policy} bundles how many times to try, how long to back off, and
    how much deterministic jitter to apply; {!classify} is the error
    taxonomy that decides {e whether} trying again can help at all.

    {!decide} is the one rule the ORB applies after every failed
    attempt: only a failure whose request provably did not execute is
    ever sent again, so a dispatched request is never duplicated (see
    the "Failure model" section of DESIGN.md). *)

(** Where an exception falls in the taxonomy:
    - [Transient] — connection-level failures ({!Transport.Transport_error}:
      connect refused, stale/closed connection). Another attempt may
      succeed.
    - [Deadline] — {!Transport.Timeout}. Never retried by the ORB: the
      request may be executing on the peer right now.
    - [Permanent] — everything else (decoded system errors, protocol
      errors, user exceptions). Retrying cannot help. The ORB treats
      the two system errors a server sends only for requests it never
      executed ({!Pool.never_executed}) as [Transient], and a breaker
      fast-fail too: nothing was sent, so another placement may serve. *)
type error_class = Transient | Deadline | Permanent

val classify : exn -> error_class

exception Budget_exhausted of string
(** The client-wide retry budget refused a withdrawal: the aggregate
    retry ratio is at its bound. {!classify}d as [Permanent] — by
    design, a budget-exhausted call fails fast and loudly instead of
    joining a retry storm. *)

(** A client-wide retry budget (cf. Finagle's RetryBudget): a token
    bucket replenished by successes and drained by retries. The
    per-call [max_attempts] bounds one call's worst case; the budget
    bounds the {e aggregate} retry-to-success ratio, so correlated
    replica failures cannot amplify every in-flight call into a
    synchronized retry storm. Lock-free (one atomic, CAS updates);
    safe from any thread or domain. *)
module Budget : sig
  type t

  type config = {
    ratio : float;
        (** Steady-state retry credits earned per success (clamped to
            [0..1]). 0.1 = at most ~10% retries long-run. *)
    reserve : int;  (** Initial balance, in retries. *)
    cap : int;  (** Bucket bound, in retries (min 1). *)
  }

  val default_config : config
  (** 10% ratio, 100 retries of reserve, capped at 250. *)

  val create : ?config:config -> unit -> t

  val deposit : t -> unit
  (** Record a success: credits [ratio] of a retry, up to [cap]. *)

  val try_withdraw : t -> bool
  (** Take one retry credit. [false] (and counts an exhaustion) when
      the balance is under one whole credit. *)

  val balance : t -> int
  (** Whole retry credits currently banked. *)

  val exhaustions : t -> int
  (** Withdrawals refused so far — the retry-storm-suppressed count. *)
end

type policy = {
  max_attempts : int;  (** Total attempts, including the first (>= 1). *)
  base_delay : float;  (** Backoff before attempt 2, in seconds. *)
  multiplier : float;  (** Exponential growth factor per attempt. *)
  max_delay : float;  (** Backoff cap, in seconds. *)
  jitter : float;
      (** Fractional jitter in [0..1]: the delay is scaled by a factor
          drawn uniformly from [1-jitter .. 1+jitter]. *)
  seed : int;  (** Seeds the jitter draw — the schedule is deterministic. *)
}

val default : policy
(** 3 attempts, 2ms base, x2 growth, 250ms cap, 20% jitter. *)

val none : policy
(** A single attempt — retries disabled. *)

val delay_for : policy -> attempt:int -> float
(** Backoff to sleep after failed attempt [attempt] (1-based). Pure:
    the same policy and attempt always give the same delay. *)

val resend_safe : error_class -> unsent:bool -> bool
(** The at-most-once rule: [true] iff the failure is [Transient] and
    [unsent] — the request provably did not execute (it was never
    sent, or the server refused it unexecuted). Anything else may be
    executing on the peer and is never sent again, to any placement. *)

(** What to do after a failed attempt. *)
type verdict =
  | Retry_after of float  (** Sleep this long, then try again. *)
  | Give_up  (** Fail the call with the attempt's own error. *)
  | Exhausted
      (** The rules allow a retry but the budget holds no credit: fail
          the call with {!Budget_exhausted}. *)

val decide :
  policy ->
  budget:Budget.t ->
  attempt:int ->
  error_class ->
  unsent:bool ->
  deadline:float option ->
  now:float ->
  verdict
(** The one retry decision after failed attempt [attempt] (1-based).
    [Give_up] unless the failure is {!resend_safe}, attempts remain,
    and the backoff {!delay_for} ends before [deadline] (absolute, in
    the [now] clock; [None] is no deadline) — a retry that could only
    start at or past the deadline is not taken, and nothing sleeps.
    Only then is a credit taken from [budget]: [Retry_after] the
    backoff when one is there, [Exhausted] when not. The withdrawal is
    the decision's only effect, so a refused retry never spends a
    credit. *)
