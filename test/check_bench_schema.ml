(* Schema check for bench artifacts (BENCH_obs.json / BENCH_overload.json
   / BENCH_mux.json), run from the [bench-smoke] alias. Dispatches on the
   "experiment" field.
   Validates structure and invariants — NOT the measured figures
   themselves, which are hardware- and load-dependent: the point of the
   smoke test is that the bench runs end-to-end and emits a well-formed,
   internally consistent artifact on every CI run.

   Hand-rolled recursive-descent JSON parser: the repo deliberately has
   no JSON dependency (lib/obs emits JSON via string combinators and
   never parses it), and this checker must not add one. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char buf '\r';
              advance ();
              go ()
          | Some 'u' ->
              (* \uXXXX: decode to a raw byte for ASCII range; enough for
                 artifacts this repo emits (control chars only). *)
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail "bad \\u escape");
              go ()
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a JSON value"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let items = ref [] in
      let rec go () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      go ();
      Arr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---------------- schema assertions ---------------- *)

let field obj name =
  match obj with
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> raise (Bad (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Bad (Printf.sprintf "expected an object around %S" name))

let want_str obj name =
  match field obj name with
  | Str s -> s
  | _ -> raise (Bad (Printf.sprintf "field %S must be a string" name))

let want_num obj name =
  match field obj name with
  | Num f -> f
  | _ -> raise (Bad (Printf.sprintf "field %S must be a number" name))

let want_bool obj name =
  match field obj name with
  | Bool b -> b
  | _ -> raise (Bad (Printf.sprintf "field %S must be a bool" name))

let want_arr obj name =
  match field obj name with
  | Arr l -> l
  | _ -> raise (Bad (Printf.sprintf "field %S must be an array" name))

let check cond msg = if not cond then raise (Bad msg)

let is_hex s =
  s <> ""
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* ---------------- E9: observability overhead ---------------- *)

let check_e9 path root =
  ignore (want_str root "transport");
    ignore (want_str root "protocol");
    check (want_num root "calls" > 0.) "calls must be > 0";
    let off = want_num root "trace_off_ns_per_call" in
    let on = want_num root "trace_on_ns_per_call" in
    check (off > 0.) "trace_off_ns_per_call must be > 0";
    check (on > 0.) "trace_on_ns_per_call must be > 0";
    check (want_num root "repeats" >= 1.) "repeats must be >= 1";
    let pct = want_num root "overhead_pct" in
    check
      (want_num root "overhead_pct_p10" <= pct
      && pct <= want_num root "overhead_pct_p90")
      "overhead_pct (the median) must lie within its p10..p90";
    check (want_num root "client_spans" > 0.) "client_spans must be > 0";
    check (want_num root "server_spans" > 0.) "server_spans must be > 0";
    check (want_bool root "shared_trace_id")
      "client and server spans must share a trace id";
    (* The sample span is a real client span from the traced run: ids
       well-formed, all four phase timings populated (Jout renders an
       unset phase as null, which [want_num] rejects). *)
    let span = field root "sample_client_span" in
    check
      (is_hex (want_str span "trace_id")
      && String.length (want_str span "trace_id") = 16)
      "sample span trace_id must be 16 hex digits";
    check
      (is_hex (want_str span "span_id")
      && String.length (want_str span "span_id") = 8)
      "sample span span_id must be 8 hex digits";
    check (want_str span "kind" = "client") "sample span kind must be client";
    check (want_str span "operation" = "echo") "sample span operation must be echo";
    List.iter
      (fun phase ->
        check (want_num span phase >= 0.)
          (Printf.sprintf "sample span %s must be a non-negative number" phase))
      [ "marshal_s"; "send_s"; "wait_s"; "unmarshal_s" ];
    (* The embedded metrics snapshot must carry the traced run's data:
       at least the invoke histogram and one metered endpoint. *)
    let snap = field root "client_snapshot" in
    check
      (want_num snap "spans_emitted" > 0.)
      "client_snapshot.spans_emitted must be > 0";
    let metrics = field snap "metrics" in
    let latencies = want_arr metrics "latencies" in
    check (latencies <> []) "client_snapshot must include latency histograms";
    check
      (List.exists (fun h -> want_str h "name" = "invoke:echo") latencies)
      "client_snapshot must include the invoke:echo histogram";
    let endpoints = want_arr metrics "endpoints" in
    check (endpoints <> []) "client_snapshot must include endpoint byte counters";
    (* The ORB's event counters, the source of [Orb.stats]. *)
    check
      (want_num (field metrics "counters") "client:connections_opened" >= 1.)
      "client_snapshot counters must include client:connections_opened";
    List.iter
      (fun e ->
        check
          (want_num e "bytes_out" > 0. && want_num e "bytes_in" > 0.)
          "metered endpoints must have traffic both ways")
      endpoints;
    Printf.printf "%s: schema OK (off %.0f ns, on %.0f ns, %d spans)\n" path off
      on
      (int_of_float (want_num root "client_spans"))

(* ---------------- E10: overload policy ---------------- *)

let check_e10 path root =
  ignore (want_str root "transport");
  ignore (want_str root "protocol");
  check (want_num root "duration_s" > 0.) "duration_s must be > 0";
  check (want_num root "service_ms" > 0.) "service_ms must be > 0";
  let cells = want_arr root "cells" in
  check (cells <> []) "cells must be non-empty";
  List.iter
    (fun cell ->
      ignore (want_str cell "server");
      check (want_num cell "clients" > 0.) "cell clients must be > 0";
      check (want_num cell "ok" >= 0.) "cell ok must be >= 0";
      check (want_num cell "rejected" >= 0.) "cell rejected must be >= 0";
      check (want_num cell "failed" = 0.)
        "cells must account for every call: failed must be 0";
      check (want_num cell "ok_per_s" >= 0.) "cell ok_per_s must be >= 0";
      List.iter
        (fun f ->
          check (want_num cell f >= 0.)
            (Printf.sprintf "cell %s must be >= 0" f))
        [ "p50_ms"; "p95_ms"; "max_ms" ])
    cells;
  (* Both serving models must appear, and the run must have completed
     real work under at least one configuration. *)
  let servers = List.map (fun c -> want_str c "server") cells in
  check
    (List.exists
       (fun s -> String.length s >= 4 && String.sub s 0 4 = "pool")
       servers)
    "cells must include a bounded-pool configuration";
  check
    (List.mem "thread-per-conn" servers)
    "cells must include the thread-per-connection configuration";
  check
    (List.exists (fun c -> want_num c "ok" > 0.) cells)
    "at least one cell must complete calls";
  Printf.printf "%s: schema OK (%d cells, %d ok calls total)\n" path
    (List.length cells)
    (int_of_float (List.fold_left (fun a c -> a +. want_num c "ok") 0. cells))

(* ---------------- E11: client connection multiplexing ---------------- *)

let check_e11 path root =
  ignore (want_str root "transport");
  check (want_num root "duration_s" > 0.) "duration_s must be > 0";
  check (want_num root "service_ms" > 0.) "service_ms must be > 0";
  let cells = want_arr root "cells" in
  check (cells <> []) "cells must be non-empty";
  List.iter
    (fun cell ->
      ignore (want_str cell "protocol");
      ignore (want_str cell "mode");
      check (want_num cell "max_in_flight" >= 1.) "max_in_flight must be >= 1";
      check (want_num cell "call_timeout_s" >= 0.)
        "call_timeout_s must be >= 0 (0 = no deadline)";
      check (want_num cell "threads" > 0.) "cell threads must be > 0";
      check (want_num cell "ok" > 0.) "every cell must complete calls";
      check (want_num cell "failed" = 0.)
        "mux cells must not drop or fail calls: failed must be 0";
      check (want_num cell "ok_per_s" > 0.) "cell ok_per_s must be > 0";
      check (want_num cell "peak_in_flight" >= 0.) "peak_in_flight must be >= 0";
      (* The whole experiment is about sharing: every cell must have run
         over exactly one outbound connection. *)
      check (want_num cell "connections" = 1.)
        "each cell must share exactly one connection";
      (* The demux must actually pipeline when threads allow; the
         serialized client (the demux with one slot) must never have
         more than one call in flight, so its peak is at most 1. *)
      let mi = want_num cell "max_in_flight" and th = want_num cell "threads" in
      if mi > 1. && th > 1. then
        check (want_num cell "peak_in_flight" > 1.)
          "multiplexed cells with >1 thread must observe >1 in flight"
      else if mi = 1. then
        check (want_num cell "peak_in_flight" <= 1.)
          "serialized cells must not pipeline")
    cells;
  (* Both client modes over both codecs. *)
  let protos = List.sort_uniq compare (List.map (fun c -> want_str c "protocol") cells) in
  check (List.length protos >= 2) "cells must cover both codecs";
  List.iter
    (fun proto ->
      let mine = List.filter (fun c -> want_str c "protocol" = proto) cells in
      let modes = List.sort_uniq compare (List.map (fun c -> want_str c "mode") mine) in
      check (List.length modes >= 2)
        (Printf.sprintf "protocol %s must cover both client modes" proto);
      (* The acceptance invariant: at the highest thread count measured
         in both modes (>= 8), the multiplexed client must deliver at
         least 2x the serialized throughput. The servant sleeps for its
         service time, so the ratio is pipelining, not CPU luck. *)
      let untimed = List.filter (fun c -> want_num c "call_timeout_s" = 0.) mine in
      let by_mode pred =
        List.filter (fun c -> pred (want_num c "max_in_flight")) untimed
      in
      let muxed = by_mode (fun m -> m > 1.) and serial = by_mode (fun m -> m = 1.) in
      let threads_of cs = List.map (fun c -> want_num c "threads") cs in
      let common =
        List.filter (fun t -> List.mem t (threads_of serial)) (threads_of muxed)
      in
      let high = List.filter (fun t -> t >= 8.) common in
      check (high <> [])
        (Printf.sprintf "protocol %s must include a cell with >= 8 threads" proto);
      let t = List.fold_left max 0. high in
      let find cs = List.find (fun c -> want_num c "threads" = t) cs in
      let m_ok = want_num (find muxed) "ok" and s_ok = want_num (find serial) "ok" in
      check
        (m_ok >= 2. *. s_ok)
        (Printf.sprintf
           "protocol %s: mux must be >= 2x serialized at %.0f threads (got %.0f vs %.0f)"
           proto t m_ok s_ok);
      (* The deadline arm: a 1 s call deadline must not slow the mux
         down. A deadline wait that sleeps in fixed ticks instead of
         waking on the reply costs a 2 ms call a whole tick. *)
      let timed =
        List.filter
          (fun c ->
            want_num c "call_timeout_s" > 0. && want_num c "max_in_flight" > 1.)
          mine
      in
      check (timed <> [])
        (Printf.sprintf "protocol %s must include a call_timeout arm" proto);
      List.iter
        (fun c ->
          let n = want_num c "threads" in
          match List.find_opt (fun m -> want_num m "threads" = n) muxed with
          | None ->
              raise
                (Bad
                (Printf.sprintf
                   "protocol %s: call_timeout arm at %.0f threads has no \
                    untimed mux cell to compare with"
                   proto n))
          | Some m ->
              let tr = want_num c "ok_per_s" and ur = want_num m "ok_per_s" in
              check (tr >= 0.5 *. ur)
                (Printf.sprintf
                   "protocol %s: with a call_timeout the mux must keep >= 0.5x \
                    the untimed calls/s at %.0f threads (got %.0f vs %.0f)"
                   proto n tr ur))
        timed)
    protos;
  Printf.printf "%s: schema OK (%d cells, %d ok calls total)\n" path
    (List.length cells)
    (int_of_float (List.fold_left (fun a c -> a +. want_num c "ok") 0. cells))

(* ---------------- E12: replica kill/restart failover ---------------- *)

(* ---------------- E13: multicore dispatch ---------------- *)

let check_e13 path root =
  ignore (want_str root "transport");
  ignore (want_str root "protocol");
  check (want_num root "duration_s" > 0.) "duration_s must be > 0";
  check (want_num root "service_ms" > 0.) "service_ms must be > 0";
  check (want_num root "payload_kb" > 0.) "payload_kb must be > 0";
  let cores = want_num root "cores" in
  check (cores >= 1.) "cores must be >= 1";
  let cells = want_arr root "cells" in
  check (cells <> []) "cells must be non-empty";
  List.iter
    (fun cell ->
      let backend = want_str cell "backend" in
      check
        (backend = "domains" || backend = "systhreads")
        "cell backend must be domains or systhreads";
      check (want_num cell "workers" > 0.) "cell workers must be > 0";
      check (want_num cell "clients" > 0.) "cell clients must be > 0";
      check (want_num cell "ok" >= 0.) "cell ok must be >= 0";
      check (want_num cell "failed" = 0.)
        "cells must account for every call: failed must be 0";
      check (want_num cell "ok_per_s" >= 0.) "cell ok_per_s must be >= 0")
    cells;
  let ops backend workers =
    List.find_map
      (fun c ->
        if want_str c "backend" = backend && want_num c "workers" = workers
        then Some (want_num c "ok_per_s")
        else None)
      cells
  in
  (* Both backends must appear with a 1-worker baseline that did work. *)
  let d1 =
    match ops "domains" 1. with
    | Some v -> v
    | None -> raise (Bad "cells must include the 1-worker domains baseline")
  in
  check (d1 > 0.) "the 1-domain baseline must complete calls";
  check (ops "systhreads" 1. <> None)
    "cells must include the 1-worker systhreads control";
  (* The acceptance gate: 4 domains >= 2.5x the 1-domain arm — a claim
     about parallel hardware, so it only binds when the host actually
     has >= 4 cores. A 1-core CI box still verifies structure and
     conservation above; the committed BENCH_multicore.json from a
     multicore host carries the scaling evidence. *)
  (match ops "domains" 4. with
  | Some d4 when cores >= 4. ->
      check
        (d4 >= 2.5 *. d1)
        (Printf.sprintf
           "4-domain throughput must be >= 2.5x the 1-domain arm on a >= \
            4-core host (got %.2fx)"
           (d4 /. d1))
  | _ -> ());
  Printf.printf "%s: schema OK (%d cells, cores %d, 1-domain %.0f ok/s)\n" path
    (List.length cells) (int_of_float cores) d1

let check_e12 path root =
  ignore (want_str root "transport");
  let duration = want_num root "duration_s" in
  check (duration > 0.) "duration_s must be > 0";
  let bucket_s = want_num root "bucket_s" in
  check (bucket_s > 0.) "bucket_s must be > 0";
  check (want_num root "replicas" >= 3.) "replicas must be >= 3";
  check (want_num root "clients" > 0.) "clients must be > 0";
  let kill_at = want_num root "kill_at_s" in
  let restart_at = want_num root "restart_at_s" in
  check (kill_at > 0. && kill_at < restart_at && restart_at < duration)
    "timeline must order 0 < kill < restart < duration";
  check (want_num root "reset_timeout_s" > 0.) "reset_timeout_s must be > 0";
  let steady = want_num root "steady_ok_per_s" in
  check (steady > 0.) "steady_ok_per_s must be > 0";
  check (want_num root "recovery_ok_per_s" >= 0.)
    "recovery_ok_per_s must be >= 0";
  let ratio = want_num root "recovery_ratio" in
  (* The acceptance invariant: after a replica kill, throughput is back
     to >= 80% of steady state within one breaker half-open window. *)
  check (want_bool root "recovered_within_window")
    (Printf.sprintf
       "throughput must recover to >= 80%% of steady within one breaker \
        window (got %.0f%%)"
       (100. *. ratio));
  check (ratio >= 0.8) "recovery_ratio must agree with recovered_within_window";
  let ok_total = want_num root "ok_total" in
  let failed_total = want_num root "failed_total" in
  check (ok_total > 0.) "ok_total must be > 0";
  (* Bounded error rate: a replica kill may fail the calls caught on
     the dying connection, never a meaningful share of the run. *)
  check (failed_total <= 0.05 *. ok_total)
    (Printf.sprintf "failed_total must stay under 5%% of ok (got %.0f/%.0f)"
       failed_total ok_total);
  check (want_num root "failovers" >= 1.)
    "the kill must force at least one failover";
  List.iter
    (fun f ->
      check (want_num root f >= 0.) (Printf.sprintf "%s must be >= 0" f))
    [ "p95_steady_ms"; "p95_outage_ms"; "p95_after_restart_ms" ];
  check (want_num root "p95_steady_ms" > 0.) "p95_steady_ms must be > 0";
  let served = want_arr root "replica_served" in
  check
    (List.length served = int_of_float (want_num root "replicas"))
    "replica_served must have one entry per replica";
  List.iter
    (fun v ->
      match v with
      | Num f -> check (f > 0.) "every replica (incl. restarted) must serve"
      | _ -> raise (Bad "replica_served entries must be numbers"))
    served;
  let buckets = want_arr root "buckets" in
  check (List.length buckets >= 10) "buckets must cover the timeline";
  List.iter
    (fun b ->
      check (want_num b "t_s" >= 0.) "bucket t_s must be >= 0";
      check (want_num b "ok" >= 0.) "bucket ok must be >= 0";
      check (want_num b "failed" >= 0.) "bucket failed must be >= 0")
    buckets;
  (* Failures, if any, must be confined to the kill/restart transitions
     — no bucket outside those windows may fail calls. *)
  List.iter
    (fun b ->
      let t = want_num b "t_s" in
      let near at = t >= at -. bucket_s && t <= at +. (2. *. bucket_s) in
      if want_num b "failed" > 0. then
        check
          (near kill_at || near restart_at)
          (Printf.sprintf "failures outside the kill/restart windows (t=%.2fs)"
             t))
    buckets;
  Printf.printf "%s: schema OK (recovery %.0f%%, %d ok, %d failed)\n" path
    (100. *. ratio) (int_of_float ok_total) (int_of_float failed_total)

(* ---------------- E14: deadline propagation under saturation -------- *)

let check_e14 path root =
  ignore (want_str root "transport");
  check (want_num root "duration_s" > 0.) "duration_s must be > 0";
  check (want_num root "service_ms" > 0.) "service_ms must be > 0";
  check
    (want_num root "deadline_ms" > want_num root "service_ms")
    "deadline_ms must exceed service_ms";
  check (want_num root "capacity_per_s" > 0.) "capacity_per_s must be > 0";
  let cells = want_arr root "cells" in
  check (cells <> []) "cells must be non-empty";
  List.iter
    (fun cell ->
      let arm = want_str cell "propagation" in
      check (arm = "on" || arm = "off") "propagation must be on|off";
      check (want_num cell "multiplier" >= 1.) "multiplier must be >= 1";
      check (want_num cell "offered_per_s" > 0.) "offered_per_s must be > 0";
      List.iter
        (fun f ->
          check (want_num cell f >= 0.)
            (Printf.sprintf "cell %s must be >= 0" f))
        [
          "ok"; "timeout"; "shed"; "failed"; "goodput_per_s"; "executed";
          "expired_pre_admission"; "expired_in_queue"; "rejected";
        ];
      (* The off arm sends no budget slot, so the server can never shed
         on expiry there. *)
      if arm = "off" then begin
        check
          (want_num cell "expired_pre_admission" = 0.)
          "off-arm cells must not shed pre-admission";
        check
          (want_num cell "expired_in_queue" = 0.)
          "off-arm cells must not shed in queue"
      end)
    cells;
  let arm_cell arm m =
    List.find_opt
      (fun c -> want_str c "propagation" = arm && want_num c "multiplier" = m)
      cells
  in
  let multipliers =
    List.sort_uniq compare (List.map (fun c -> want_num c "multiplier") cells)
  in
  (* The experiment's claim: at deep saturation (>= 4x) propagation
     never loses goodput — shedding expired and doomed work frees the
     workers for requests that can still meet their deadline. *)
  let saturated = List.filter (fun m -> m >= 4.) multipliers in
  List.iter
    (fun m ->
      match (arm_cell "on" m, arm_cell "off" m) with
      | Some on, Some off ->
          check
            (want_num on "goodput_per_s" >= want_num off "goodput_per_s")
            (Printf.sprintf
               "at %gx saturation the propagation arm must not lose goodput"
               m);
          check
            (want_num on "expired_in_queue" > 0.)
            (Printf.sprintf "at %gx saturation the on arm must shed in queue"
               m)
      | _ -> raise (Bad (Printf.sprintf "missing arm at multiplier %g" m)))
    saturated;
  check (saturated <> []) "sweep must include a >= 4x saturation point";
  let goodput arm m =
    match arm_cell arm m with Some c -> want_num c "goodput_per_s" | None -> 0.
  in
  Printf.printf
    "%s: schema OK (%d cells; at %gx goodput on=%.0f/s off=%.0f/s)\n" path
    (List.length cells) (List.hd saturated)
    (goodput "on" (List.hd saturated))
    (goodput "off" (List.hd saturated))

(* ---------------- E15: codec sweep ---------------- *)

let check_e15 path root =
  ignore (want_str root "transport");
  check (want_num root "measure_s" > 0.) "measure_s must be > 0";
  let sizes =
    List.map
      (function
        | Num f -> f
        | _ -> raise (Bad "payload_sizes must be numbers"))
      (want_arr root "payload_sizes")
  in
  check (sizes <> []) "payload_sizes must be non-empty";
  let rows = want_arr root "rows" in
  check (rows <> []) "rows must be non-empty";
  List.iter
    (fun row ->
      ignore (want_str row "protocol");
      check (want_num row "payload_bytes" >= 0.) "payload_bytes must be >= 0";
      check (want_num row "bytes_per_call" > 0.) "bytes_per_call must be > 0";
      check (want_num row "ns_per_call" > 0.) "ns_per_call must be > 0";
      check (want_num row "calls_per_s" > 0.) "calls_per_s must be > 0";
      (* A round trip moves at least the payload there and an envelope
         back; a meter that missed the channel would report less. *)
      check
        (want_num row "bytes_per_call" > want_num row "payload_bytes")
        "bytes_per_call must exceed the payload itself")
    rows;
  let row proto size =
    List.find_opt
      (fun r -> want_str r "protocol" = proto && want_num r "payload_bytes" = size)
      rows
  in
  (* The compact-codec invariant: HCX moves strictly fewer bytes per
     call than heidi-text at EVERY payload size in the sweep. This is a
     structural property of the encodings (varints + byte-count framing
     vs text tokens + escaping), so it must hold at any quota. *)
  List.iter
    (fun size ->
      match (row "hcx" size, row "heidi-text" size) with
      | Some h, Some t ->
          check
            (want_num h "bytes_per_call" < want_num t "bytes_per_call")
            (Printf.sprintf
               "hcx bytes/call must be strictly below heidi-text at %g B" size)
      | _ ->
          raise
            (Bad (Printf.sprintf "missing hcx or heidi-text row at %g B" size)))
    sizes;
  let ratio size =
    match (row "hcx" size, row "heidi-text" size) with
    | Some h, Some t ->
        want_num t "bytes_per_call" /. want_num h "bytes_per_call"
    | _ -> 0.
  in
  Printf.printf "%s: schema OK (%d rows; text/hcx bytes ratio %.2fx at %g B)\n"
    path (List.length rows) (ratio (List.hd sizes)) (List.hd sizes)

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_obs.json" in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  try
    let root = parse text in
    match want_str root "experiment" with
    | "E9" -> check_e9 path root
    | "E10" -> check_e10 path root
    | "E11" -> check_e11 path root
    | "E12" -> check_e12 path root
    | "E13" -> check_e13 path root
    | "E14" -> check_e14 path root
    | "E15" -> check_e15 path root
    | other -> raise (Bad (Printf.sprintf "unknown experiment %S" other))
  with Bad msg ->
    Printf.eprintf "%s: schema check FAILED: %s\n" path msg;
    exit 1
