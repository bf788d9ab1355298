exception Transport_error of string
exception Timeout of string

exception Frame_limit of string
(* An incoming line exceeded the [max] its [read_line] was given. The
   oversized line has been discarded through its terminating newline
   with bounded memory, so the byte stream is still synchronized: the
   caller may answer with an error and keep reading. *)

let () =
  Printexc.register_printer (function
    | Transport_error m -> Some (Printf.sprintf "Orb.Transport_error: %s" m)
    | Timeout m -> Some (Printf.sprintf "Orb.Transport.Timeout: %s" m)
    | Frame_limit m -> Some (Printf.sprintf "Orb.Transport.Frame_limit: %s" m)
    | _ -> None)

let fail fmt = Printf.ksprintf (fun m -> raise (Transport_error m)) fmt
let frame_fail fmt = Printf.ksprintf (fun m -> raise (Frame_limit m)) fmt

type channel = {
  write : string -> unit;
  writev : string list -> unit;
  read_line : max:int -> string;
  read_exact : int -> string;
  close : unit -> unit;
  peer : string;
}

type listener = {
  accept : unit -> channel;
  shutdown : unit -> unit;
  bound_host : string;
  bound_port : int;
}

(* ---------------- the buffered reader ---------------- *)

(* The one receive buffer and line/frame reader, over a byte source
   [fill buf off len]: block until at least one byte can be copied into
   [buf.[off ..]], copy at most [len], return the count; 0 means the
   stream has ended. Tcp passes a guarded [Unix.read], mem a pipe of the
   peer's writes.

   [rbuf.[rpos .. rlen-1]] holds bytes filled but not yet consumed. The
   buffer starts at 4 KiB and doubles only when one frame (or line) does
   not fit, and only as that frame's bytes arrive (see [read_exact]), so
   it ends up the size of the largest frame actually received. Consumed
   bytes are reclaimed by sliding the live bytes to the front when they
   are no more than the dead prefix (amortized linear) or when the tail
   is too short for the next fill. Only the one reader thread touches
   these. *)
let buffered_reader ~peer fill =
  let rbuf = ref (Bytes.create 4096) in
  let rpos = ref 0 and rlen = ref 0 in
  let available () = !rlen - !rpos in
  (* Make room for at least [want] more bytes after the live ones. *)
  let reserve want =
    let cap = Bytes.length !rbuf and live = available () in
    if live + want > cap then begin
      let cap' = ref cap in
      while !cap' < live + want do cap' := !cap' * 2 done;
      let b = Bytes.create !cap' in
      Bytes.blit !rbuf !rpos b 0 live;
      rbuf := b;
      rpos := 0;
      rlen := live
    end
    else if !rlen + want > cap || (!rpos > 0 && !rpos >= live) then begin
      Bytes.blit !rbuf !rpos !rbuf 0 live;
      rpos := 0;
      rlen := live
    end
  in
  (* One fill of whatever the source has, into the free tail, after
     making room for at least [want] bytes. Allocates nothing. *)
  let refill want =
    reserve want;
    let n = fill !rbuf !rlen (Bytes.length !rbuf - !rlen) in
    if n = 0 then fail "connection to %s closed by peer" peer;
    rlen := !rlen + n
  in
  let take n =
    let s = Bytes.sub_string !rbuf !rpos n in
    rpos := !rpos + n;
    s
  in
  (* Index of the first newline at or after [from], if buffered. *)
  let find_newline from =
    let b = !rbuf and stop = !rlen in
    let rec scan i =
      if i >= stop then None
      else if Bytes.unsafe_get b i = '\n' then Some i
      else scan (i + 1)
    in
    scan from
  in
  let over max = frame_fail "line from %s exceeds %d-byte receive limit" peer max in
  (* Discard an oversized line through its terminating newline with
     bounded memory: whole buffered chunks are dropped until the newline
     arrives, so the stream ends up synchronized at the next line. *)
  let rec discard_line max =
    match find_newline !rpos with
    | Some i ->
        rpos := i + 1;
        over max
    | None ->
        rpos := !rlen;
        refill 1;
        discard_line max
  in
  (* [scanned] bytes after [rpos] are known to hold no newline; it is
     relative to [rpos] because [refill] may slide the buffer. *)
  let rec read_line_from ~max scanned =
    match find_newline (!rpos + scanned) with
    | Some i ->
        let linelen = i - !rpos in
        if linelen > max then begin
          rpos := i + 1;
          over max
        end
        else begin
          let line = take linelen in
          rpos := !rpos + 1;
          line
        end
    | None ->
        let scanned = available () in
        if scanned > max then discard_line max
        else begin
          refill 1;
          read_line_from ~max scanned
        end
  in
  let read_line ~max = read_line_from ~max 0 in
  (* Room is reserved one read's worth at a time, never for the whole
     declared length: a peer that sends only a header announcing a
     16 MiB frame must not make this connection allocate (and keep)
     16 MiB before the body's bytes arrive. *)
  let rec read_exact n =
    let live = available () in
    if live >= n then take n
    else (
      refill (min (n - live) 65536);
      read_exact n)
  in
  (read_line, read_exact)

(* ---------------- TCP ---------------- *)

let tcp_channel fd ~peer =
  (* Never [Unix.close] an fd another thread may still hand to a
     syscall: the kernel recycles fd numbers immediately, so a stale
     read/write would land on whatever connection got the number next —
     a cross-connection hijack (observed as a text server answering a
     GIOP client after a test torn one down). [close] therefore only
     marks the channel closing and shuts the socket down (which wakes a
     reader blocked in read with EOF); the real [Unix.close] is done by
     the last thread to leave a syscall, or by [close] itself when no
     syscall is in flight. *)
  let guard = Locked.create ~name:"tcp.channel" ~rank:Locked.Rank.tcp_channel in
  let users = ref 0 in
  let closing = ref false in
  let fd_closed = ref false in
  let really_close () =
    if not !fd_closed then begin
      fd_closed := true;
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
    end
  in
  let enter () =
    Locked.with_lock guard (fun () ->
        if !closing then fail "connection to %s is closed" peer;
        incr users)
  in
  let leave () =
    Locked.with_lock guard (fun () ->
        decr users;
        if !closing && !users = 0 then really_close ())
  in
  let guarded f =
    enter ();
    Fun.protect ~finally:leave f
  in
  (* Each [Unix.read] copies at most 64 KiB through the runtime's stack
     buffer into the reader's free tail: no heap chunk per read, but
     still one copy. *)
  let read_line, read_exact =
    buffered_reader ~peer (fun buf off len ->
        guarded (fun () ->
            try Unix.read fd buf off len
            with Unix.Unix_error (e, _, _) ->
              fail "read from %s failed: %s" peer (Unix.error_message e)))
  in
  (* [Unix.write_substring] takes the immutable string as it is — no
     [Bytes.of_string] copy of the payload; the runtime still stages
     each chunk of up to 64 KiB through its own stack buffer. A
     multi-slice send (frame header + body) is one syscall loop per
     slice, with no join of the slices. *)
  let write_slice s =
    let len = String.length s in
    let rec go off =
      if off < len then
        let n =
          try Unix.write_substring fd s off (len - off)
          with Unix.Unix_error (e, _, _) ->
            fail "write to %s failed: %s" peer (Unix.error_message e)
        in
        go (off + n)
    in
    go 0
  in
  let writev parts = guarded (fun () -> List.iter write_slice parts) in
  let write s = writev [ s ] in
  let close () =
    Locked.with_lock guard (fun () ->
        if not !closing then begin
          closing := true;
          (* Wake any thread blocked in read on this socket; their next
             step observes [closing] and fails cleanly. shutdown(2)
             never blocks, so holding the guard across it is safe. *)
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL
           with Unix.Unix_error (_, _, _) -> ());
          if !users = 0 then really_close ()
        end)
  in
  { write; writev; read_line; read_exact; close; peer }

let resolve_host host =
  if host = "localhost" || host = "" then Unix.inet_addr_loopback
  else
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } -> fail "host %s has no address" host
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found -> fail "unknown host %s" host)

let tcp_listen ~host ~port =
  let addr = Unix.ADDR_INET (resolve_host host, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock addr
   with Unix.Unix_error (e, _, _) ->
     fail "bind to %s:%d failed: %s" host port (Unix.error_message e));
  Unix.listen sock 64;
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stopped = ref false in
  (* Same deferred-close discipline as [tcp_channel]: [Unix.close]-ing
     the listening socket while another thread is (or is about to be)
     inside [Unix.accept] on it lets the kernel recycle the fd number;
     the stale accept would then serve connections meant for whoever
     got the recycled fd. The accepting thread holds a use count; the
     real close happens only when the last user leaves. *)
  let guard = Locked.create ~name:"tcp.listener" ~rank:Locked.Rank.tcp_channel in
  let users = ref 0 in
  let sock_closed = ref false in
  let really_close () =
    if not !sock_closed then begin
      sock_closed := true;
      try Unix.close sock with Unix.Unix_error (_, _, _) -> ()
    end
  in
  let accept () =
    Locked.with_lock guard (fun () ->
        if !stopped then fail "listener on port %d is shut down" bound_port;
        incr users);
    let leave () =
      Locked.with_lock guard (fun () ->
          decr users;
          if !stopped && !users = 0 then really_close ())
    in
    match Fun.protect ~finally:leave (fun () -> Unix.accept sock) with
    | fd, addr ->
        if !stopped then begin
          (* Shutdown raced the accept: the fd number of the closed
             listener may already have been recycled for a NEW listener,
             in which case this thread just stole a connection meant for
             the new server. Hand it back by closing; the client sees a
             reset and (if configured) retries against the real owner. *)
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          fail "listener on port %d is shut down" bound_port
        end;
        (* Request/reply frames are small; without TCP_NODELAY each reply
           can sit in Nagle's buffer waiting for the previous segment's
           ACK, adding up to an RTT of idle latency per call. *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error (_, _, _) -> ());
        let peer =
          match addr with
          | Unix.ADDR_INET (peer_addr, peer_port) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr peer_addr) peer_port
          | _ -> "<unknown>"
        in
        tcp_channel fd ~peer
    | exception Unix.Unix_error (e, _, _) ->
        fail "accept on port %d failed: %s" bound_port (Unix.error_message e)
  in
  let shutdown () =
    let need_wake =
      Locked.with_lock guard (fun () ->
          if !stopped then None
          else begin
            stopped := true;
            let need_wake = !users > 0 in
            if not need_wake then really_close ();
            Some need_wake
          end)
    in
    match need_wake with
    | None -> ()
    | Some need_wake ->
      (* Wake any thread blocked in [accept]. Closing alone does not
         interrupt a blocked accept on Linux (and [Unix.shutdown] on a
         listening socket is ENOTCONN): the thread would sleep on until
         the fd number is recycled — possibly for the NEXT listener,
         whose connections the old accept loop (still speaking the OLD
         protocol) would then steal. A throwaway self-connection pops
         the blocked accept out of the kernel; the post-accept
         [stopped] re-check makes it discard the dummy and bail out,
         and its [leave] performs the deferred close. *)
        if need_wake then
          try
            let wake = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            (try
               Unix.connect wake (Unix.ADDR_INET (resolve_host host, bound_port))
             with Unix.Unix_error (_, _, _) -> ());
            try Unix.close wake with Unix.Unix_error (_, _, _) -> ()
          with Unix.Unix_error (_, _, _) -> ()
  in
  { accept; shutdown; bound_host = host; bound_port }

let tcp_connect ~host ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (Unix.ADDR_INET (resolve_host host, port))
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
     fail "connect to %s:%d failed: %s" host port (Unix.error_message e));
  (* See the accept path: requests are small, so disable Nagle. *)
  (try Unix.setsockopt sock Unix.TCP_NODELAY true
   with Unix.Unix_error (_, _, _) -> ());
  tcp_channel sock ~peer:(Printf.sprintf "%s:%d" host port)

(* ---------------- in-memory loopback ---------------- *)

(* A unidirectional pipe of the strings its writer handed over, with
   blocking reads. A write queues its string as it is (no copy); [fill]
   copies queued bytes straight into the reader's buffer. *)
module Pipe = struct
  type t = {
    lock : Locked.t;  (* rank [pipe]; intrinsic condition = data/close *)
    chunks : string Queue.t;  (* non-empty strings, oldest first *)
    mutable head_pos : int;  (* consumed prefix of the oldest chunk *)
    mutable closed : bool;
  }

  let create () =
    { lock = Locked.create ~name:"mem.pipe" ~rank:Locked.Rank.pipe;
      chunks = Queue.create (); head_pos = 0; closed = false }

  let write t s =
    Locked.with_lock t.lock (fun () ->
        if t.closed then fail "write to closed in-memory channel";
        if s <> "" then begin
          Queue.push s t.chunks;
          Locked.broadcast t.lock
        end)

  let close t =
    Locked.with_lock t.lock (fun () ->
        t.closed <- true;
        Locked.broadcast t.lock)

  (* The reader's byte source: parks until a chunk is queued or the
     pipe closes, then copies up to [len] queued bytes. Returns 0 only
     once the pipe is closed and drained. *)
  let fill t buf off len =
    Locked.with_lock t.lock (fun () ->
        while Queue.is_empty t.chunks && not t.closed do
          Locked.wait t.lock
        done;
        let rec copy n =
          if n = len || Queue.is_empty t.chunks then n
          else begin
            let s = Queue.peek t.chunks in
            let k = min (len - n) (String.length s - t.head_pos) in
            Bytes.blit_string s t.head_pos buf (off + n) k;
            if t.head_pos + k = String.length s then begin
              ignore (Queue.pop t.chunks);
              t.head_pos <- 0
            end
            else t.head_pos <- t.head_pos + k;
            copy (n + k)
          end
        in
        copy 0)
end

let mem_channel_pair ~peer_a ~peer_b =
  let a_to_b = Pipe.create () and b_to_a = Pipe.create () in
  let mk ~incoming ~outgoing ~peer =
    let read_line, read_exact = buffered_reader ~peer (Pipe.fill incoming) in
    {
      write = Pipe.write outgoing;
      (* Callers serialize sends per connection, so the slices stay
         adjacent in the pipe. *)
      writev = List.iter (Pipe.write outgoing);
      read_line;
      read_exact;
      close =
        (fun () ->
          Pipe.close outgoing;
          Pipe.close incoming);
      peer;
    }
  in
  ( mk ~incoming:b_to_a ~outgoing:a_to_b ~peer:peer_a,
    mk ~incoming:a_to_b ~outgoing:b_to_a ~peer:peer_b )

(* Registry of in-memory listeners: port -> pending-connection queue. *)
type mem_listener_state = {
  ml_lock : Locked.t;  (* rank [mem_listener]; intrinsic cond = pending *)
  mutable ml_pending : channel list;  (* server-side ends awaiting accept *)
  mutable ml_closed : bool;
}

let mem_registry : (int, mem_listener_state) Hashtbl.t = Hashtbl.create 16

let mem_registry_lock =
  Locked.create ~name:"mem.registry" ~rank:Locked.Rank.mem_registry

let mem_next_port = ref 1

let mem_reset () =
  (* registry (28) > listener (26): this nesting is the reason the two
     ranks are distinct. *)
  Locked.with_lock mem_registry_lock (fun () ->
      Hashtbl.iter
        (fun _ st ->
          Locked.with_lock st.ml_lock (fun () ->
              st.ml_closed <- true;
              Locked.broadcast st.ml_lock))
        mem_registry;
      Hashtbl.reset mem_registry)

let mem_listen ~port =
  let port, st =
    Locked.with_lock mem_registry_lock (fun () ->
        (* A port-0 listen never hands out a number twice: once its
           listener shuts down, a stale reference to it must fail, not
           reach whichever server would reuse the number. *)
        let port =
          if port <> 0 then port
          else (
            while Hashtbl.mem mem_registry !mem_next_port do
              incr mem_next_port
            done;
            incr mem_next_port;
            !mem_next_port - 1)
        in
        if Hashtbl.mem mem_registry port then
          fail "in-memory port %d is already bound" port;
        let st =
          { ml_lock =
              Locked.create ~name:"mem.listener" ~rank:Locked.Rank.mem_listener;
            ml_pending = []; ml_closed = false }
        in
        Hashtbl.replace mem_registry port st;
        (port, st))
  in
  let accept () =
    Locked.with_lock st.ml_lock (fun () ->
        let rec wait () =
          match st.ml_pending with
          | ch :: rest ->
              st.ml_pending <- rest;
              ch
          | [] ->
              if st.ml_closed then
                fail "in-memory listener on port %d is shut down" port
              else (
                Locked.wait st.ml_lock;
                wait ())
        in
        wait ())
  in
  let shutdown () =
    Locked.with_lock mem_registry_lock (fun () ->
        Hashtbl.remove mem_registry port);
    Locked.with_lock st.ml_lock (fun () ->
        st.ml_closed <- true;
        Locked.broadcast st.ml_lock)
  in
  { accept; shutdown; bound_host = "local"; bound_port = port }

let mem_connect ~port =
  let st =
    Locked.with_lock mem_registry_lock (fun () ->
        Hashtbl.find_opt mem_registry port)
  in
  match st with
  | None -> fail "no in-memory listener on port %d" port
  | Some st ->
      let client_end, server_end =
        mem_channel_pair
          ~peer_a:(Printf.sprintf "mem:%d(server)" port)
          ~peer_b:(Printf.sprintf "mem:%d(client)" port)
      in
      Locked.with_lock st.ml_lock (fun () ->
          if st.ml_closed then
            fail "in-memory listener on port %d is shut down" port;
          st.ml_pending <- st.ml_pending @ [ server_end ];
          Locked.broadcast st.ml_lock);
      client_end

(* ---------------- fault injection ---------------- *)

(* A ["faulty:<inner>"] transport wraps ["tcp"] or ["mem"] and injects
   failures according to a process-global, deterministically seeded
   plan, so every robustness behaviour of the runtime (timeouts,
   retries, circuit breakers) is testable without a flaky network. *)
module Fault = struct
  type fault =
    | Refuse_connect  (** The connect attempt fails outright. *)
    | Stall_read  (** The read hangs like a dead peer (until closed). *)
    | Drop_read  (** The connection dies instead of delivering data. *)
    | Truncate_write of int  (** Only the first [n] bytes go out, then death. *)
    | Corrupt_write of int  (** Byte at offset [n mod len] is flipped. *)
    | Delay_write of float  (** The write is delayed by [seconds]. *)

  type point = { op : [ `Connect | `Read | `Write ]; nth : int; peer : string }
  type plan = point -> fault option

  let none : plan = fun _ -> None

  let fault_name = function
    | Refuse_connect -> "refuse_connect"
    | Stall_read -> "stall_read"
    | Drop_read -> "drop_read"
    | Truncate_write _ -> "truncate_write"
    | Corrupt_write _ -> "corrupt_write"
    | Delay_write _ -> "delay_write"

  (* Global plan + deterministic per-op counters. One lock guards all
     of it; fault decisions are cheap. *)
  let lock = Locked.create ~name:"fault" ~rank:Locked.Rank.fault
  let active : plan ref = ref none
  let n_connect = ref 0
  let n_read = ref 0
  let n_write = ref 0
  let injected_counts : (string, int) Hashtbl.t = Hashtbl.create 8

  let with_mutex f = Locked.with_lock lock f

  let set_plan p =
    with_mutex (fun () ->
        active := p;
        n_connect := 0;
        n_read := 0;
        n_write := 0;
        Hashtbl.reset injected_counts)

  let clear () = set_plan none

  let injected () =
    with_mutex (fun () ->
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) injected_counts []))

  let injected_total () =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (injected ())

  (* Consult the plan at one operation point; counts the injection. *)
  let draw op ~peer =
    with_mutex (fun () ->
        let counter =
          match op with `Connect -> n_connect | `Read -> n_read | `Write -> n_write
        in
        let nth = !counter in
        incr counter;
        match !active { op; nth; peer } with
        | None -> None
        | Some f ->
            let name = fault_name f in
            Hashtbl.replace injected_counts name
              (1 + Option.value ~default:0 (Hashtbl.find_opt injected_counts name));
            Some f)

  (* A derived, deterministic random plan: the decision at each point is
     a pure function of [seed] and the point's (op, nth), so the same
     seed always produces the same fault schedule. [side] restricts
     injection to channels whose peer description matches. *)
  let seeded ~seed ?(refuse_connect = 0.) ?(stall_read = 0.) ?(drop_read = 0.)
      ?(truncate_write = 0.) ?(corrupt_write = 0.) ?(delay_write = 0.)
      ?(side = fun (_ : string) -> true) () : plan =
   fun { op; nth; peer } ->
    if not (side peer) then None
    else
      let tag = match op with `Connect -> 1 | `Read -> 2 | `Write -> 3 in
      let st = Random.State.make [| seed; tag; nth |] in
      let d = Random.State.float st 1.0 in
      match op with
      | `Connect -> if d < refuse_connect then Some Refuse_connect else None
      | `Read ->
          if d < stall_read then Some Stall_read
          else if d < stall_read +. drop_read then Some Drop_read
          else None
      | `Write ->
          if d < truncate_write then Some (Truncate_write (Random.State.int st 8))
          else if d < truncate_write +. corrupt_write then
            Some (Corrupt_write (Random.State.int st 64))
          else if d < truncate_write +. corrupt_write +. delay_write then
            Some (Delay_write (0.001 +. Random.State.float st 0.004))
          else None
end

let faulty_channel inner =
  (* [broken] marks a connection killed by an injected fault or closed;
     every later operation fails like a dead socket would. [stall]
     guards [broken] for a stalled read parked on it: [kill] broadcasts
     it. *)
  let stall = Locked.create ~name:"fault.stall" ~rank:Locked.Rank.fault in
  let broken = ref false in
  let guard () =
    if !broken then fail "connection to %s broken by injected fault" inner.peer
  in
  let kill () =
    Locked.with_lock stall (fun () ->
        broken := true;
        Locked.broadcast stall);
    inner.close ()
  in
  let on_read read =
    guard ();
    match Fault.draw `Read ~peer:inner.peer with
    | Some Fault.Stall_read ->
        (* Hang exactly like a peer that stopped responding: wake only
           when the channel dies. *)
        Locked.with_lock stall (fun () ->
            while not !broken do
              Locked.wait stall
            done);
        fail "connection to %s broken by injected fault" inner.peer
    | Some Fault.Drop_read ->
        kill ();
        fail "connection to %s dropped by injected fault" inner.peer
    | _ -> read ()
  in
  let write s =
    guard ();
    match Fault.draw `Write ~peer:inner.peer with
    | Some (Fault.Truncate_write n) ->
        inner.write (String.sub s 0 (min n (String.length s)));
        kill ();
        fail "write to %s truncated by injected fault" inner.peer
    | Some (Fault.Corrupt_write n) ->
        if String.length s = 0 then inner.write s
        else begin
          let b = Bytes.of_string s in
          let i = n mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
          inner.write (Bytes.to_string b)
        end
    | Some (Fault.Delay_write d) ->
        Thread.delay d;
        inner.write s
    | _ -> inner.write s
  in
  {
    write;
    (* One fault draw per logical frame, as for [write]: the fault model
       describes what the network does to a send, not to each slice. *)
    writev = (fun parts -> write (String.concat "" parts));
    read_line = (fun ~max -> on_read (fun () -> inner.read_line ~max));
    read_exact = (fun n -> on_read (fun () -> inner.read_exact n));
    (* Closing marks the channel broken so a concurrently stalled read
       (Stall_read) wakes with a transport error instead of spinning on a
       channel nobody will use again — the client demux relies on this
       when it kills a timed-out connection under a reader thread. *)
    close = (fun () -> kill ());
    peer = inner.peer;
  }

let faulty_prefix = "faulty:"

let faulty_inner proto =
  let n = String.length faulty_prefix in
  if
    String.length proto > n && String.sub proto 0 n = faulty_prefix
  then Some (String.sub proto n (String.length proto - n))
  else None

(* ---------------- byte metering ---------------- *)

(* Wrap a channel so every wire byte is reported to the callbacks — the
   feed for the observability layer's per-endpoint byte counters. The
   callbacks run on the I/O thread after the operation succeeds; they
   must be cheap and must not raise. read_line counts the consumed
   newline terminator, so in+out totals match across a loopback pair. *)
let metered ~on_read ~on_write chan =
  {
    chan with
    write =
      (fun s ->
        chan.write s;
        on_write (String.length s));
    writev =
      (fun parts ->
        chan.writev parts;
        on_write (List.fold_left (fun acc s -> acc + String.length s) 0 parts));
    read_line =
      (fun ~max ->
        let line = chan.read_line ~max in
        on_read (String.length line + 1);
        line);
    read_exact =
      (fun n ->
        let s = chan.read_exact n in
        on_read (String.length s);
        s);
  }

(* ---------------- dispatch by protocol name ---------------- *)

let rec listen ~proto ~host ~port =
  match proto with
  | "tcp" -> tcp_listen ~host ~port
  | "mem" -> mem_listen ~port
  | p -> (
      match faulty_inner p with
      | Some inner ->
          let l = listen ~proto:inner ~host ~port in
          { l with accept = (fun () -> faulty_channel (l.accept ())) }
      | None -> fail "unknown transport protocol %S" p)

let rec connect ~proto ~host ~port =
  match proto with
  | "tcp" -> tcp_connect ~host ~port
  | "mem" -> mem_connect ~port
  | p -> (
      match faulty_inner p with
      | Some inner -> (
          let peer = Printf.sprintf "%s:%s:%d" inner host port in
          match Fault.draw `Connect ~peer with
          | Some Fault.Refuse_connect ->
              fail "connect to %s refused by injected fault" peer
          | _ -> faulty_channel (connect ~proto:inner ~host ~port))
      | None -> fail "unknown transport protocol %S" p)
