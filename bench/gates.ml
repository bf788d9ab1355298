(* What each bench experiment's record must carry, and the claims it
   must uphold: per experiment, the config keys, the kinds of cell, and
   the gates. A gate keeps the threshold its experiment's acceptance
   criterion states (EXPERIMENTS.md names each gate). Read by
   test/check_bench_schema.ml; test/test_bench_record.ml shows every
   gate and validator rule rejecting a corrupted record. *)

open Record

let transport = ("transport", Text)
let all f r = List.for_all f r.cells
let distinct k cs = List.sort_uniq compare (List.map (label k) cs)
let with_label k v cs = List.filter (fun c -> label k c = v) cs
let nonneg keys = List.map (fun k -> (k, Ge 0.)) keys

let only s r =
  match cells_of s r with [ c ] -> c | _ -> bad "want exactly one %s cell" s

(* ---------------- E9: observability overhead ---------------- *)

let hex len s =
  String.length s = len
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let e9 =
  let span k r = label k (only "sample_span" r) in
  let named k r = with_label "name" k (cells_of "counter" r) in
  {
    s_experiment = "E9";
    s_config = [ transport; ("protocol", Text); ("calls", Gt 0.) ];
    s_kinds =
      [
        kind ~series:"trace" [ ("trace", Text) ] [ ("ns_per_call", Gt 0.) ];
        kind ~series:"overhead" [] [ ("overhead_pct", Text) ];
        kind ~series:"spans" [ ("shared_trace_id", Text) ]
          [ ("client_spans", Gt 0.); ("server_spans", Gt 0.) ];
        (* All four phases timed: an unset phase is NaN, which rule
           metric-spread rejects. *)
        kind ~series:"sample_span"
          [ ("trace_id", Text); ("span_id", Text); ("kind", Text);
            ("operation", Text) ]
          (nonneg [ "marshal_s"; "send_s"; "wait_s"; "unmarshal_s" ]);
        kind ~series:"latency" [ ("name", Text) ] [ ("total", Ge 0.) ];
        kind ~series:"latency_bucket"
          [ ("name", Text); ("le_s", Text) ]
          [ ("count", Gt 0.) ];
        (* Metered endpoints carry traffic both ways. *)
        kind ~series:"endpoint" [ ("endpoint", Text) ]
          [ ("bytes_in", Gt 0.); ("bytes_out", Gt 0.) ];
        kind ~series:"counter" [ ("name", Text) ] [ ("value", Ge 0.) ];
        kind ~series:"gauge" [ ("name", Text) ] [ ("value", Text) ];
      ];
    s_gates =
      [
        gate "e9.shared_trace_id"
          "the last client and server spans share a trace id" (fun r ->
            label "shared_trace_id" (only "spans" r) = "true");
        gate "e9.trace_id_hex" "the sample span's trace id is 16 hex digits"
          (fun r -> hex 16 (span "trace_id" r));
        gate "e9.span_id_hex" "the sample span's span id is 8 hex digits"
          (fun r -> hex 8 (span "span_id" r));
        gate "e9.sample_client" "the sample span is a client span" (fun r ->
            span "kind" r = "client");
        gate "e9.sample_echo" "the sample span's operation is echo" (fun r ->
            span "operation" r = "echo");
        gate "e9.invoke_histogram"
          "the snapshot holds the invoke:echo histogram" (fun r ->
            List.mem "invoke:echo" (distinct "name" (cells_of "latency" r)));
        gate "e9.connections_counted"
          "the snapshot counts client:connections_opened >= 1" (fun r ->
            List.exists
              (fun c -> metric "value" c >= 1.)
              (named "client:connections_opened" r));
      ];
  }

(* ---------------- E10: overload policy ---------------- *)

let e10 =
  {
    s_experiment = "E10";
    s_config =
      [ transport; ("protocol", Text); ("duration_s", Gt 0.);
        ("service_ms", Gt 0.) ];
    s_kinds =
      [
        kind
          [ ("server", Text); ("clients", Gt 0.) ]
          (nonneg
             [ "ok"; "rejected"; "failed"; "ok_per_s"; "p50_ms"; "p95_ms";
               "max_ms" ]);
      ];
    s_gates =
      [
        gate "e10.no_failures"
          "every call is accounted for: no cell fails a call"
          (all (fun c -> metric "failed" c = 0.));
        gate "e10.pool_measured" "a bounded-pool configuration is measured"
          (fun r ->
            List.exists
              (String.starts_with ~prefix:"pool")
              (distinct "server" r.cells));
        gate "e10.thread_per_conn_measured"
          "the thread-per-connection model is measured" (fun r ->
            List.mem "thread-per-conn" (distinct "server" r.cells));
        gate "e10.completes_calls" "at least one cell completes calls"
          (fun r -> List.exists (fun c -> metric "ok" c > 0.) r.cells);
      ];
  }

(* ---------------- E11: client connection multiplexing ---------------- *)

let e11 =
  let cap = label_num "max_in_flight" and threads = label_num "threads" in
  let timeout = label_num "call_timeout_s" in
  let untimed pred = List.filter (fun c -> timeout c = 0. && pred (cap c)) in
  let muxed = untimed (fun m -> m > 1.) and serial = untimed (fun m -> m = 1.) in
  let timed = List.filter (fun c -> timeout c > 0. && cap c > 1.) in
  (* The thread counts >= 8 measured untimed in both modes. *)
  let high cs =
    List.filter
      (fun t -> t >= 8. && List.exists (fun c -> threads c = t) (serial cs))
      (List.map threads (muxed cs))
  in
  let per_codec f r =
    List.for_all
      (fun p -> f p (with_label "protocol" p r.cells))
      (distinct "protocol" r.cells)
  in
  {
    s_experiment = "E11";
    s_config = [ transport; ("duration_s", Gt 0.); ("service_ms", Gt 0.) ];
    s_kinds =
      [
        kind
          [ ("protocol", Text); ("mode", Text); ("max_in_flight", Ge 1.);
            ("call_timeout_s", Ge 0.); ("threads", Gt 0.) ]
          [ ("ok", Gt 0.); ("failed", Ge 0.); ("ok_per_s", Gt 0.);
            ("peak_in_flight", Ge 0.); ("connections", Ge 0.) ];
      ];
    s_gates =
      [
        gate "e11.no_failures" "the mux neither drops nor fails calls"
          (all (fun c -> metric "failed" c = 0.));
        gate "e11.one_connection" "every cell shares exactly one connection"
          (all (fun c -> metric "connections" c = 1.));
        gate "e11.mux_pipelines"
          "a multiplexed cell with > 1 thread has > 1 call in flight"
          (all (fun c ->
               cap c <= 1. || threads c <= 1. || metric "peak_in_flight" c > 1.));
        gate "e11.serialized_one_in_flight"
          "a serialized cell has at most 1 call in flight"
          (all (fun c -> cap c <> 1. || metric "peak_in_flight" c <= 1.));
        gate "e11.both_codecs" "cells cover >= 2 codecs" (fun r ->
            List.length (distinct "protocol" r.cells) >= 2);
        gate "e11.both_modes"
          "each codec measures the multiplexed and the serialized mode"
          (per_codec (fun _ cs ->
               List.exists (fun c -> cap c > 1.) cs
               && List.exists (fun c -> label "mode" c = "serialized" && cap c = 1.) cs));
        gate "e11.eight_threads"
          "each codec measures >= 8 threads untimed in both modes"
          (per_codec (fun _ cs -> high cs <> []));
        gate "e11.mux_2x"
          "at the highest thread count >= 8 measured untimed in both modes, \
           the mux completes >= 2x the serialized calls"
          (per_codec (fun p cs ->
               match high cs with
               | [] -> bad "protocol %s has no >= 8-thread cell in both modes" p
               | hs ->
                   let t = List.fold_left max 0. hs in
                   let ok cs = metric "ok" (List.find (fun c -> threads c = t) cs) in
                   ok (muxed cs) >= 2. *. ok (serial cs)));
        gate "e11.timeout_arm" "each codec measures the mux with a call timeout"
          (per_codec (fun _ cs -> timed cs <> []));
        gate "e11.timeout_keeps_pace"
          "with a call timeout the mux keeps >= 0.5x the untimed calls/s"
          (per_codec (fun p cs ->
               List.for_all
                 (fun c ->
                   let twin m = threads m = threads c in
                   match List.find_opt twin (muxed cs) with
                   | None ->
                       bad "protocol %s: no untimed mux cell at %g threads" p
                         (threads c)
                   | Some m -> metric "ok_per_s" c >= 0.5 *. metric "ok_per_s" m)
                 (timed cs)));
      ];
  }

(* ---------------- E12: replica kill/restart failover ---------------- *)

let e12 =
  let summary k r = metric k (only "summary" r) in
  {
    s_experiment = "E12";
    s_config =
      [ transport; ("duration_s", Gt 0.); ("bucket_s", Gt 0.);
        ("replicas", Ge 3.); ("clients", Gt 0.); ("kill_at_s", Ge 0.);
        ("restart_at_s", Ge 0.); ("reset_timeout_s", Gt 0.) ];
    s_kinds =
      [
        kind ~series:"summary" []
          ([ ("steady_ok_per_s", Gt 0.); ("ok_total", Gt 0.);
             ("p95_steady_ms", Gt 0.) ]
          @ nonneg
              [ "recovery_ok_per_s"; "recovery_ratio"; "failed_total";
                "failovers"; "p95_outage_ms"; "p95_after_restart_ms" ]);
        (* Every replica, the restarted one included, serves. *)
        kind ~series:"replica" [ ("replica", Ge 0.) ] [ ("served", Gt 0.) ];
        kind ~series:"bucket" [ ("bucket", Ge 0.) ]
          (nonneg [ "t_s"; "ok"; "failed" ]);
      ];
    s_gates =
      [
        gate "e12.timeline" "0 < kill < restart < duration" (fun r ->
            let kill = config_num "kill_at_s" r in
            let restart = config_num "restart_at_s" r in
            kill > 0. && kill < restart && restart < config_num "duration_s" r);
        gate "e12.recovers"
          "throughput recovers to >= 80% of steady within one breaker window"
          (fun r -> summary "recovery_ratio" r >= 0.8);
        gate "e12.few_failures" "failed calls stay under 5% of ok calls"
          (fun r -> summary "failed_total" r <= 0.05 *. summary "ok_total" r);
        gate "e12.fails_over" "the kill forces at least one failover" (fun r ->
            summary "failovers" r >= 1.);
        gate "e12.replica_cells" "one replica cell per replica" (fun r ->
            float_of_int (List.length (cells_of "replica" r))
            = config_num "replicas" r);
        gate "e12.buckets" "buckets cover the timeline: >= 10 of them" (fun r ->
            List.length (cells_of "bucket" r) >= 10);
        gate "e12.failures_in_windows"
          "failures fall only in the kill and restart windows" (fun r ->
            let b = config_num "bucket_s" r in
            let near at t = t >= at -. b && t <= at +. (2. *. b) in
            List.for_all
              (fun c ->
                let t = metric "t_s" c in
                metric "failed" c = 0.
                || near (config_num "kill_at_s" r) t
                || near (config_num "restart_at_s" r) t)
              (cells_of "bucket" r));
      ];
  }

(* ---------------- E13: multicore dispatch ---------------- *)

let e13 =
  let ops backend workers r =
    List.find_map
      (fun c ->
        if label "backend" c = backend && label_num "workers" c = workers then
          Some (metric "ok_per_s" c)
        else None)
      r.cells
  in
  {
    s_experiment = "E13";
    s_config =
      [ transport; ("protocol", Text); ("duration_s", Gt 0.);
        ("service_ms", Gt 0.); ("payload_kb", Gt 0.) ];
    s_kinds =
      [
        kind
          [ ("backend", Text); ("workers", Gt 0.); ("clients", Gt 0.) ]
          (nonneg [ "ok"; "failed"; "ok_per_s" ]);
      ];
    s_gates =
      [
        gate "e13.backends" "every backend is domains or systhreads" (fun r ->
            List.for_all
              (fun b -> b = "domains" || b = "systhreads")
              (distinct "backend" r.cells));
        gate "e13.no_failures"
          "every call is accounted for: no cell fails a call"
          (all (fun c -> metric "failed" c = 0.));
        gate "e13.domain_baseline" "the 1-domain baseline completes calls"
          (fun r -> match ops "domains" 1. r with Some d1 -> d1 > 0. | None -> false);
        gate "e13.systhread_control" "the 1-systhread control is measured"
          (fun r -> ops "systhreads" 1. r <> None);
        (* A claim about parallel hardware: it binds only on >= 4 cores. *)
        gate "e13.scales"
          "on a host with >= 4 cores, 4 domains complete >= 2.5x the 1-domain \
           calls/s"
          (fun r ->
            match (ops "domains" 4. r, ops "domains" 1. r) with
            | Some d4, Some d1 when host_num "cores" r >= 4. -> d4 >= 2.5 *. d1
            | Some _, None when host_num "cores" r >= 4. -> bad "no 1-domain cell"
            | _ -> true);
      ];
  }

(* ---------------- E14: deadline propagation under saturation ---------------- *)

let e14 =
  let arm a m r =
    match
      with_label "propagation" a r.cells
      |> List.filter (fun c -> label_num "multiplier" c = m)
    with
    | c :: _ -> c
    | [] -> bad "missing %s arm at multiplier %g" a m
  in
  let saturated r =
    List.sort_uniq compare (List.map (label_num "multiplier") r.cells)
    |> List.filter (fun m -> m >= 4.)
  in
  let off_arm r = with_label "propagation" "off" r.cells in
  let at_saturation f r = List.for_all f (saturated r) in
  {
    s_experiment = "E14";
    s_config =
      [ transport; ("duration_s", Gt 0.); ("service_ms", Gt 0.);
        ("deadline_ms", Gt 0.); ("capacity_per_s", Gt 0.) ];
    s_kinds =
      [
        kind
          [ ("propagation", Text); ("multiplier", Ge 1.) ]
          (("offered_per_s", Gt 0.)
          :: nonneg
               [ "ok"; "timeout"; "shed"; "failed"; "goodput_per_s"; "executed";
                 "expired_pre_admission"; "expired_in_queue"; "rejected" ]);
      ];
    s_gates =
      [
        gate "e14.deadline_over_service" "the deadline exceeds the service time"
          (fun r -> config_num "deadline_ms" r > config_num "service_ms" r);
        gate "e14.arms" "every cell's propagation is on or off" (fun r ->
            List.for_all
              (fun a -> a = "on" || a = "off")
              (distinct "propagation" r.cells));
        (* The off arm sends no budget, so the server cannot shed on expiry. *)
        gate "e14.off_no_pre_admission_shed"
          "the off arm never sheds before admission" (fun r ->
            List.for_all
              (fun c -> metric "expired_pre_admission" c = 0.)
              (off_arm r));
        gate "e14.off_no_queue_shed" "the off arm never sheds in queue"
          (fun r ->
            List.for_all (fun c -> metric "expired_in_queue" c = 0.) (off_arm r));
        gate "e14.saturated" "the sweep reaches >= 4x saturation" (fun r ->
            saturated r <> []);
        gate "e14.goodput_holds"
          "at >= 4x saturation the on arm's goodput is >= the off arm's" (fun r ->
            at_saturation
              (fun m ->
                metric "goodput_per_s" (arm "on" m r)
                >= metric "goodput_per_s" (arm "off" m r))
              r);
        gate "e14.on_sheds_in_queue"
          "at >= 4x saturation the on arm sheds in queue" (fun r ->
            at_saturation (fun m -> metric "expired_in_queue" (arm "on" m r) > 0.) r);
      ];
  }

(* ---------------- E15: codec sweep ---------------- *)

let e15 =
  let bytes p size r =
    match
      with_label "protocol" p r.cells
      |> List.filter (fun c -> label_num "payload_bytes" c = size)
    with
    | c :: _ -> metric "bytes_per_call" c
    | [] -> bad "missing %s cell at %g B" p size
  in
  {
    s_experiment = "E15";
    s_config = [ transport; ("measure_s", Gt 0.) ];
    s_kinds =
      [
        kind
          [ ("protocol", Text); ("payload_bytes", Ge 0.) ]
          [ ("bytes_per_call", Gt 0.); ("ns_per_call", Gt 0.);
            ("calls_per_s", Gt 0.) ];
      ];
    s_gates =
      [
        (* A meter that missed the channel would report less. *)
        gate "e15.bytes_over_payload" "a call moves more bytes than its payload"
          (all (fun c -> metric "bytes_per_call" c > label_num "payload_bytes" c));
        (* Varints and byte-count framing vs text tokens: a structural
           property of the encodings, so it holds at any quota. *)
        gate "e15.hcx_below_text"
          "at every payload size, hcx moves strictly fewer bytes per call \
           than heidi-text"
          (fun r ->
            List.for_all
              (fun size -> bytes "hcx" size r < bytes "heidi-text" size r)
              (List.sort_uniq compare
                 (List.map (label_num "payload_bytes") r.cells)));
      ];
  }

let specs = [ e9; e10; e11; e12; e13; e14; e15 ]
let find experiment = List.find_opt (fun s -> s.s_experiment = experiment) specs
