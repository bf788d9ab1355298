(** The client's per-connection reply demultiplexer and codec gate, as
    decisions with no lock and no I/O (DESIGN.md §9, §13).

    [Orb] keeps one {!t} per cached connection, guarded by that
    connection's demux lock, and is the shell around it: it takes the
    lock, calls one function here, then waits, broadcasts, sends or
    closes as the verdict says. [test/test_state_machines.ml] runs the
    same functions through every interleaving of small event sets.

    Rules the functions keep:
    - a two-way call is registered in [pending] before its request is
      sent, so a reply that overtakes the sender finds its waiter;
      [inflight] is always the size of [pending];
    - [dead] is set once and never cleared: every current and later
      waiter fails with the first error;
    - a caller whose deadline has passed is never admitted;
    - the first two-way request on a negotiating connection takes the
      one offer, but only once nothing is in flight and every oneway
      admitted before it is on the wire; while the offer is out every
      other call is held, oneways and locates included, so no frame of
      the old encoding can cross the switch;
    - a reply is handed only to the waiter registered under its id, and
      only if it answers that kind of request: a [Locate_reply] never
      reaches a request, a [Reply] never reaches a locate. *)

type kind = Oneway | Call | Locate

type cell = { id : int; kind : kind; mutable reply : Protocol.message option }
(** One call's waiter: its request id, what it waits for, and the reply
    once delivered. *)

type gate =
  | Settled  (** negotiation off, answered, or fallen back *)
  | Fresh  (** no offer sent yet on this connection *)
  | Offering  (** the offer is out: every other call holds *)

type t = {
  pending : (int, cell) Hashtbl.t;  (** registered waiters by request id *)
  mutable inflight : int;  (** registered waiters = replies owed *)
  mutable unsent : int;  (** admitted oneways not yet on the wire *)
  limit : int;  (** admission bound: [max_in_flight], at least 1 *)
  mutable dead : exn option;  (** the terminal state, set once *)
  mutable gate : gate;
}
(** Fields are read by [Orb] (gauges, stats, replica hints) and the
    checker; they change only through the functions below. *)

val create : limit:int -> negotiate:bool -> t

val cell : Protocol.message -> cell
(** The waiter for a request or locate. Raises [Invalid_argument] on a
    reply. *)

(** {2 Caller} *)

type verdict =
  | Admitted  (** registered; send *)
  | Admitted_offer  (** registered and holding the offer; send it *)
  | Behind_offer  (** held: the offer is out, or must wait for quiet *)
  | No_slot  (** held: every in-flight slot is taken *)
  | Replied  (** the reply is in the cell *)
  | Waiting  (** no reply yet *)
  | Dead of exn  (** the connection died with this error *)

val holds : verdict -> bool
(** [Behind_offer], [No_slot] and [Waiting]: park and decide again, or
    give up once the deadline has passed. *)

val admit : t -> cell -> expired:bool -> verdict
(** Admission, one decision per wakeup: [Dead], a hold, or registration
    ([Admitted]/[Admitted_offer]). With [expired] it never registers:
    it answers the hold the caller was in. *)

val unregister : t -> cell -> reoffer:bool -> bool
(** Undo admission: a two-way's waiter if still registered, a oneway's
    unsent mark, and with [reoffer] (nothing was sent) an offer the
    call took, which passes to the next two-way call. [true] when
    parked callers must be woken. *)

val await : t -> cell -> verdict
(** [Replied], [Dead] or [Waiting]; a delivered reply wins over a
    death that came after it. *)

val settle : t -> unit
(** The offer's answer is in: held calls may proceed. *)

val kill : t -> exn -> bool
(** Mark the connection dead with [err]; [true] for the first death,
    which must close the channel. *)

(** {2 Reader} *)

type reader =
  | Read  (** a reply is owed: enter the transport read *)
  | Idle  (** nothing owed: park until a call has sent *)
  | Stop  (** dead: exit *)

val reader : t -> reader

type delivery =
  | Delivered  (** handed to its waiter; wake the waiters *)
  | Orphan of int  (** no waiter has this id: kill the connection *)
  | Wrong_kind of int  (** the waiter expects the other kind: kill *)
  | Not_a_reply  (** a request on a client connection: kill *)

val deliver : t -> Protocol.message -> delivery

(** {2 Connection cache}

    The ORB's endpoint → connection table and its after-shutdown state,
    guarded by the ORB lock. A miss is dialled outside the lock and
    installed after, first dial wins. Once {!close}d, nothing is dialled
    or cached until {!reopen}. *)

type ('k, 'c) cache = { conns : ('k, 'c) Hashtbl.t; mutable closed : bool }

type 'c slot =
  | Cached of 'c  (** use this connection (on install: the race winner) *)
  | Dial  (** miss: dial, then {!install} *)
  | Won  (** ours is now cached: start its reader *)
  | Shut  (** the cache is closed: fail, close what was dialled *)

val cache : unit -> ('k, 'c) cache
val lookup : ('k, 'c) cache -> 'k -> 'c slot
val install : ('k, 'c) cache -> 'k -> 'c -> 'c slot

val remove : ('k, 'c) cache -> 'k -> 'c -> unit
(** Drop the entry only if it is still this connection: a healthy
    replacement dialled by a faster retry stays. *)

val close : ('k, 'c) cache -> 'c list
(** Close the cache and hand back every cached connection to kill. *)

val reopen : ('k, 'c) cache -> unit
