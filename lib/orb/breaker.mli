(** Per-endpoint circuit breakers.

    A breaker tracks consecutive connection-level failures per endpoint
    (the connection-cache key). After [failure_threshold] consecutive
    failures the circuit {e trips} to [Open]: calls fast-fail with
    {!Circuit_open} without touching the network, protecting both the
    caller (no pile-up behind a dead peer) and the peer (no reconnect
    storm). After [reset_timeout] seconds one caller is let through as a
    {e half-open} probe — the ORB uses a [Locate_request] ping — and its
    outcome closes or re-trips the circuit.

    State machine: [Closed] --(threshold failures)--> [Open]
    --(reset_timeout elapses; one probe)--> [Half_open]
    --(probe ok)--> [Closed] / --(probe fails)--> [Open].

    Every call the gate lets through carries a {!ticket}, and its report
    moves the circuit only while that ticket is current. So a call
    admitted before a trip neither closes the circuit by succeeding nor
    pushes the cool-down back by failing, and only the probe's own
    report ends [Half_open]: at most one probe is ever in flight.

    The decisions are {!Circuit}'s functions: no lock, no clock (time is
    the caller's [~now]). [test/test_state_machines.ml] runs them
    through every interleaving of small event sets. The breaker counts
    nothing: the ORB counts trips and fast fails in its [Obs]
    registry. *)

exception Circuit_open of string
(** Raised (by the ORB) instead of attempting a call on a tripped
    endpoint. *)

type state = Closed | Open | Half_open

val state_to_string : state -> string

type config = {
  failure_threshold : int;
      (** Consecutive failures that trip the circuit. *)
  reset_timeout : float;
      (** Seconds the circuit stays open before allowing a probe. *)
}

val default_config : config
(** 5 consecutive failures; 1s cool-down. *)

type ticket
(** The circuit generation a call was let through in. *)

(** What a caller should do right now. *)
type decision =
  | Proceed of ticket  (** Circuit closed: call normally. *)
  | Probe of ticket
      (** The cool-down has passed and this caller won the probe slot:
          make one lightweight attempt and report its outcome. *)
  | Fast_fail  (** Tripped, or a probe is in flight: do not touch the
                   network. *)

(** One endpoint's circuit and its decisions. *)
module Circuit : sig
  type t = private {
    mutable st : state;
    mutable failures : int;
        (** Consecutive failures reported in this generation. *)
    mutable opened_at : float;  (** When it last tripped. *)
    mutable gen : int;  (** Bumped at every change of [st]. *)
  }

  val create : unit -> t
  (** Closed, no failures. *)

  val gate : config -> t -> now:float -> decision
  (** [Closed] proceeds; [Open] past its cool-down turns [Half_open]
      and grants the one probe; otherwise fast-fail. *)

  val available : config -> t -> now:float -> bool
  (** [gate] at the same [now] would not fast-fail. Moves nothing. *)

  val success : t -> ticket -> unit
  (** A current ticket's success: the probe's closes the circuit, a
      closed call's clears the failure count. A stale one is ignored. *)

  val failure : config -> t -> ticket -> now:float -> bool
  (** A current ticket's failure: counts it, and trips the circuit at
      the threshold or when it is the probe's. [true] iff this report
      tripped it. A stale one is ignored. *)
end

type t
(** Circuits by endpoint key, under one lock (rank [breaker]). *)

val create : ?config:config -> unit -> t

val before_call : t -> string -> now:float -> decision
(** {!Circuit.gate} on endpoint [key]'s circuit. *)

val success : t -> string -> ticket -> unit
(** Any decoded reply — including system errors — is a success: the
    peer is responsive. *)

val failure : t -> string -> ticket -> now:float -> bool
(** A connection-level failure (transport error / timeout); [true] iff
    it tripped the circuit. *)

val state : t -> string -> state

val available : t -> string -> now:float -> bool
(** {!Circuit.available}: replica selection uses it to skip tripped
    endpoints without taking the probe slot. Pass the [now] the gate
    will see, so the two agree. *)

val states : t -> (string * state) list
(** Every endpoint the breaker has seen, with its current state, sorted
    by endpoint key. *)
