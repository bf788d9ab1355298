(** Byte transports.

    Three transports ship with the runtime:
    - ["tcp"] — real TCP sockets (Unix), one thread per accepted
      connection on the server side;
    - ["mem"] — an in-process loopback with the same interface, used by
      the tests and single-process examples. "Ports" are slots in a
      process-global registry, so several in-memory ORBs (address spaces)
      can coexist and call each other deterministically;
    - ["faulty:<inner>"] (e.g. ["faulty:mem"]) — a wrapper around either
      of the above that injects failures according to the process-global
      {!Fault} plan, for deterministic robustness testing.

    Channels carry raw bytes; message demarcation is the communicator's
    job (paper: the [ObjectCommunicator] "provides the abstraction of a
    communication channel on which individual requests can be
    demarcated"). Tcp and mem differ only in their byte source: one
    buffered reader serves both. *)

exception Transport_error of string
(** Connection-level failure: refused connect, peer closed, I/O error.
    Distinct from {!Timeout} — callers that retry treat the two very
    differently (see [Orb.Retry]). *)

exception Timeout of string
(** A call's deadline passed before its reply arrived. Raised by the
    ORB, which waits for the reply on the caller's side; channel reads
    have no deadline of their own. *)

exception Frame_limit of string
(** An incoming line exceeded the [max] given to [read_line]. The
    oversized line has already been discarded through its terminating
    newline with bounded memory, so the byte stream is still
    synchronized: the caller may answer with a protocol-level error and
    keep using the channel. *)

type channel = {
  write : string -> unit;  (** Write all bytes. *)
  writev : string list -> unit;
      (** Write the slices back-to-back, one after the other: they are
          not joined into one string first. On TCP each slice is one
          [Unix.write_substring] loop — not a gather [writev(2)]: the
          runtime copies each chunk of up to 64 KiB through its own
          stack buffer, so a slice costs one syscall per chunk. Callers
          serialize sends per connection, so the slices stay adjacent
          on the wire. *)
  read_line : max:int -> string;
      (** Read up to (and excluding) the next ['\n'], as a fresh
          string of at most [max] bytes.
          @raise Transport_error on EOF.
          @raise Frame_limit on a longer line, which is discarded
          through its newline with bounded memory (the stream stays
          synchronized). *)
  read_exact : int -> string;
      (** Read exactly [n] bytes, as a fresh string the caller owns.

          Reads have one owner at a time: [read_line], [read_exact] and
          [read_view] share the channel's receive buffer (one [Bytes]
          per connection that grows, as bytes arrive, to the largest
          frame received), so two threads must not read one channel
          concurrently. A read blocks until its bytes arrive or the
          channel closes. Writes and [close] may come from other
          threads; [close] wakes a blocked read.
          @raise Transport_error on EOF. *)
  read_view : int -> Bytes.t * int;
      (** [read_view n] reads exactly [n] bytes like [read_exact], but
          copies nothing: it returns [(buf, off)], where
          [buf.[off .. off+n-1]] are the bytes, lent in the channel's
          own receive buffer. The view is valid only until the next read
          on this channel, which may slide or replace that buffer; the
          caller must neither keep it past then nor write to it.
          @raise Transport_error on EOF. *)
  close : unit -> unit;
      (** Close the channel. Idempotent: a second call does nothing. It
          wakes a read blocked on the channel (which then fails), and
          every later read or write fails with {!Transport_error}
          ("is closed" on tcp). On tcp the fd itself is closed when the
          last syscall in flight on it returns — at once if none is —
          so a thread still inside a read or write never meets a
          recycled fd number. *)
  peer : string;  (** Peer description for logs. *)
}

type listener = {
  accept : unit -> channel;  (** Blocks until a client connects. *)
  shutdown : unit -> unit;  (** Stop accepting; wakes blocked accepts. *)
  bound_host : string;
  bound_port : int;  (** Actual port (useful when asked for port 0). *)
}

val listen : proto:string -> host:string -> port:int -> listener
(** Create a listening endpoint. For ["tcp"], [port = 0] picks a free
    port. For ["mem"], [port = 0] allocates a fresh slot.
    @raise Transport_error on unknown protocol or bind failure. *)

val connect : proto:string -> host:string -> port:int -> channel
(** Open a channel to a listening endpoint.
    @raise Transport_error on unknown protocol or connection failure. *)

(** The use word that guards one tcp fd, as pure steps; the transport
    applies them by compare-and-set, and a test can run them through
    every interleaving. A word is the number of threads inside a
    syscall on the fd (a closer counts as one while it wakes the
    others), times 2, plus a closing bit. *)
module Use : sig
  val idle : int
  (** Open, no users. *)

  val closing : int -> bool
  val users : int -> int

  val enter : int -> int option
  (** A syscall begins: one more user, or [None] once closing. *)

  val close : int -> int option
  (** Closing begins: set the bit and take a use for the closer itself,
      in one step; [None] if already closing. The closer then shuts
      down or wakes, and leaves. *)

  val leave : int -> int
  (** A user (or the closer) is done: one user fewer. *)

  val last : int -> bool
  (** [last w]: the leave that found [w] (closing, one user) is the last
      one out, and closes the fd. *)
end

val mem_reset : unit -> unit
(** Drop all in-memory listeners and shut each down (test isolation).
    Port-0 numbers handed out before stay retired. *)

val metered :
  on_read:(int -> unit) -> on_write:(int -> unit) -> channel -> channel
(** Wrap a channel so every wire byte (framing included) is reported to
    the callbacks after the underlying operation succeeds — the feed
    for the observability layer's per-endpoint byte counters.
    [read_line] counts the consumed newline terminator and [read_view]
    the bytes it lends, so a loopback pair's in/out totals match.
    Callbacks run on the I/O path: they must be cheap and must not
    raise. *)

(** Deterministic fault injection for the ["faulty:<inner>"] transport.

    A {e plan} is a pure function from an operation point (connect /
    read / write, its global sequence number, and the channel's peer
    description) to an optional fault. The plan is process-global:
    {!set_plan} installs it and resets the sequence counters, so a test
    that sets a plan, runs a scenario and {!clear}s gets a reproducible
    fault schedule every time. *)
module Fault : sig
  type fault =
    | Refuse_connect  (** The connect attempt fails outright. *)
    | Stall_read
        (** The read hangs like a dead peer; it returns only by raising
            {!Transport_error} once the channel is closed (the ORB
            closes it when the call's deadline passes). *)
    | Drop_read  (** The connection dies instead of delivering data. *)
    | Truncate_write of int
        (** Only the first [n] bytes are written; then the connection
            dies, so the peer sees a mid-message EOF. *)
    | Corrupt_write of int  (** Byte at offset [n mod length] is flipped. *)
    | Delay_write of float  (** The write is delayed by [seconds]. *)

  type point = {
    op : [ `Connect | `Read | `Write ];
    nth : int;  (** Global per-[op] sequence number since {!set_plan}. *)
    peer : string;
        (** The channel's peer description — lets a plan target one side
            of a connection (e.g. only channels talking {e to} the
            server). *)
  }

  type plan = point -> fault option

  val none : plan

  val seeded :
    seed:int ->
    ?refuse_connect:float ->
    ?stall_read:float ->
    ?drop_read:float ->
    ?truncate_write:float ->
    ?corrupt_write:float ->
    ?delay_write:float ->
    ?side:(string -> bool) ->
    unit ->
    plan
  (** A random plan with the given per-operation fault rates (each in
      [0..1]), fully determined by [seed]: the decision at each point is
      a pure function of the seed and the point, so replaying the same
      scenario reproduces the same faults. [side] filters by peer
      description (default: inject everywhere). *)

  val set_plan : plan -> unit
  (** Install a plan and reset the sequence counters and statistics. *)

  val clear : unit -> unit
  (** Back to {!none} (also resets counters). *)

  val injected : unit -> (string * int) list
  (** Injected-fault counts by fault name, since the last {!set_plan}. *)

  val injected_total : unit -> int
end
