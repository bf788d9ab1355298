(** The server's admission decisions for pipelined requests, with no
    lock and no I/O (DESIGN.md §8). [Orb]'s connection reader calls
    {!arrive}, and {!submitted} for a submit the pool refused, under
    the ORB lock; a worker calls {!pickup} before running a queued
    request; every admitted request ends in exactly one {!finish},
    {!submitted} or {!cancel}. [test/test_state_machines.ml] runs them
    through every interleaving of small event sets.

    A request's budget is anchored to the server's receive time, so
    [expiry] is an absolute instant on the server clock. *)

type t = { cap : int; mutable draining : bool }
(** Server-wide: the per-connection pipelining cap ([0] = none), and
    whether shutdown is draining (every new request is refused). *)

type conn = { mutable inflight : int }
(** Per connection: requests admitted and not yet answered. *)

type refusal =
  | Draining  (** the server is shutting down *)
  | Over_cap  (** the connection is at its pipelining cap *)
  | Expired_at_decode  (** the budget lapsed in transit *)
  | Rejected of string  (** the pool refused it, with this reason *)
  | Expired_awaiting_space  (** it lapsed while the pool blocked *)
  | Expired_in_queue  (** at pickup: it lapsed in the queue *)
  | Doomed_in_queue
      (** at pickup: the budget left is below 1.25 × the learned service
          time, so the reply would come too late. Under FIFO saturation
          the oldest live request always has almost no budget left;
          without this check expiry shedding recovers no goodput. *)
  | Cancelled  (** the pool stopped with it still queued *)

type verdict = Run | Refuse of refusal

val create : cap:int -> t
val conn : unit -> conn

val arrive : t -> conn -> expiry:float option -> now:float -> verdict
(** Draining, then the cap, then expiry at decode; [Run] counts the
    request in flight. *)

val submitted : conn -> [ `Rejected of string | `Expired ] -> refusal
(** The pool refused the submit: stop counting the request. *)

val pickup : expiry:float option -> now:float -> service_us:int -> verdict
(** Run it, or shed it ([service_us] is the learned service time, 0
    while unknown). The request stays counted until {!finish}. *)

val finish : conn -> unit
(** The request was answered, or refused at pickup. *)

val cancel : conn -> refusal
(** The pool stopped before running it: stop counting it. *)
