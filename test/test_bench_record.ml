(* The bench gates themselves (bench/gates.ml), without timing: for each
   experiment a small hand-built record passes, and for every gate and
   every validator rule one corruption of it fails, naming that gate or
   rule. Then every committed BENCH_*.json must have the record's shape
   and read back to the bytes the writer would write. *)

open Record

let host = [ ("cores", Num 4.); ("ocaml", Str "5.1.1") ]
let record experiment ?(repeats = 1) config cells =
  { experiment; host; config; repeats; cells }

(* ---------------- corruptions ---------------- *)

let has k v c = List.assoc_opt k c.labels = Some v
let both p q c = p c && q c
let drop pred r = { r with cells = List.filter (fun c -> not (pred c)) r.cells }

let cells_where pred f r =
  { r with cells = List.map (fun c -> if pred c then f c else c) r.cells }

let replace k v = List.map (fun (k', x) -> (k', if k' = k then v else x))
let set_metric k v c = { c with metrics = replace k (once v) c.metrics }
let set_label k v c = { c with labels = replace k v c.labels }
let set_config k v r = { r with config = replace k v r.config }

(* ---------------- E9 ---------------- *)

let e9 =
  let trace arm =
    { labels = [ ("series", "trace"); ("trace", arm) ];
      metrics = [ ("ns_per_call", { median = 5e4; p10 = 4e4; p90 = 6e4 }) ] }
  in
  record "E9" ~repeats:3
    [ ("transport", Str "mem"); ("protocol", Str "heidi-text"); ("calls", Num 40.) ]
    [
      trace "off";
      trace "on";
      { labels = [ ("series", "overhead") ];
        metrics = [ ("overhead_pct", { median = 20.; p10 = 10.; p90 = 30. }) ] };
      cell [ ("series", "spans"); ("shared_trace_id", "true") ]
        [ ("client_spans", 170.); ("server_spans", 170.) ];
      cell
        [ ("series", "sample_span"); ("trace_id", "0123456789abcdef");
          ("span_id", "89abcdef"); ("kind", "client"); ("operation", "echo") ]
        [ ("marshal_s", 1e-6); ("send_s", 5e-5); ("wait_s", 2e-4);
          ("unmarshal_s", 1e-6) ];
      cell [ ("series", "latency"); ("name", "invoke:echo") ] [ ("total", 170.) ];
      cell [ ("series", "latency_bucket"); ("name", "invoke:echo"); ("le_s", "0.0001") ]
        [ ("count", 170.) ];
      cell [ ("series", "endpoint"); ("endpoint", "mem:local:2") ]
        [ ("bytes_in", 4652.); ("bytes_out", 16552.) ];
      cell [ ("series", "counter"); ("name", "client:connections_opened") ]
        [ ("value", 1.) ];
      cell [ ("series", "gauge"); ("name", "client:in_flight:mem:local:2") ]
        [ ("value", 0.) ];
    ]

let e9_corruptions =
  let span = has "series" "sample_span" in
  [
    ("e9.shared_trace_id",
     cells_where (has "series" "spans") (set_label "shared_trace_id" "false"));
    ("e9.trace_id_hex", cells_where span (set_label "trace_id" "0123456789abcdeg"));
    ("e9.span_id_hex", cells_where span (set_label "span_id" "89abcde"));
    ("e9.sample_client", cells_where span (set_label "kind" "server"));
    ("e9.sample_echo", cells_where span (set_label "operation" "ping"));
    ("e9.invoke_histogram",
     cells_where (has "series" "latency") (set_label "name" "invoke:ping"));
    ("e9.connections_counted",
     cells_where (has "series" "counter") (set_metric "value" 0.));
  ]

(* ---------------- E10 ---------------- *)

let e10 =
  let c server = cell [ ("server", server); ("clients", "2") ]
      [ ("ok", 200.); ("rejected", 0.); ("failed", 0.); ("ok_per_s", 800.);
        ("p50_ms", 1.7); ("p95_ms", 5.); ("max_ms", 12.) ] in
  record "E10"
    [ ("transport", Str "mem"); ("protocol", Str "heidi-text");
      ("duration_s", Num 0.25); ("service_ms", Num 1.9) ]
    [ c "pool-4x16-reject"; c "thread-per-conn" ]

let e10_corruptions =
  let pool = has "server" "pool-4x16-reject" in
  [
    ("e10.no_failures", cells_where pool (set_metric "failed" 1.));
    ("e10.pool_measured", cells_where pool (set_label "server" "bounded-4x16"));
    ("e10.thread_per_conn_measured",
     cells_where (has "server" "thread-per-conn") (set_label "server" "threads"));
    ("e10.completes_calls", cells_where (fun _ -> true) (set_metric "ok" 0.));
  ]

(* ---------------- E11 ---------------- *)

let e11 =
  let c proto (mode, cap, timeout) (threads, ok, peak) =
    cell
      [ ("protocol", proto); ("mode", mode); ("max_in_flight", cap);
        ("call_timeout_s", timeout); ("threads", threads) ]
      [ ("ok", ok); ("failed", 0.); ("ok_per_s", 5. *. ok); ("peak_in_flight", peak);
        ("connections", 1.) ]
  in
  let mux = ("mux-32", "32", "0") and timed = ("mux-32+timeout", "32", "1") in
  let serial = ("serialized", "1", "0") in
  record "E11"
    [ ("transport", Str "mem"); ("duration_s", Num 0.2); ("service_ms", Num 2.) ]
    (List.concat_map
       (fun p ->
         [ c p mux ("1", 80., 1.); c p mux ("8", 440., 8.);
           c p timed ("1", 80., 1.); c p timed ("8", 440., 8.);
           c p serial ("1", 65., 1.); c p serial ("8", 70., 1.) ])
       [ "heidi-text"; "giop" ])

let e11_corruptions =
  let mode m = has "mode" m and eight = has "threads" "8" in
  [
    ("e11.no_failures", cells_where (mode "mux-32") (set_metric "failed" 1.));
    ("e11.one_connection", cells_where (mode "mux-32") (set_metric "connections" 2.));
    ("e11.mux_pipelines",
     cells_where (both (mode "mux-32") eight) (set_metric "peak_in_flight" 1.));
    ("e11.serialized_one_in_flight",
     cells_where (both (mode "serialized") eight) (set_metric "peak_in_flight" 2.));
    ("e11.both_codecs", drop (has "protocol" "giop"));
    ("e11.both_modes", cells_where (has "protocol" "giop") (set_label "mode" "mux"));
    ("e11.both_modes", drop (both (has "protocol" "giop") (mode "serialized")));
    ("e11.eight_threads", cells_where eight (set_label "threads" "4"));
    ("e11.mux_2x", cells_where (both (mode "serialized") eight) (set_metric "ok" 300.));
    ("e11.timeout_arm", drop (both (has "protocol" "giop") (mode "mux-32+timeout")));
    ("e11.timeout_keeps_pace",
     cells_where (both (mode "mux-32+timeout") eight) (set_metric "ok_per_s" 1000.));
  ]

(* ---------------- E12 ---------------- *)

let e12 =
  record "E12"
    [ ("transport", Str "mem"); ("duration_s", Num 1.); ("bucket_s", Num 0.1);
      ("replicas", Num 3.); ("clients", Num 4.); ("kill_at_s", Num 0.25);
      ("restart_at_s", Num 0.5); ("reset_timeout_s", Num 0.2) ]
    (cell [ ("series", "summary") ]
       [ ("steady_ok_per_s", 1800.); ("recovery_ok_per_s", 1700.);
         ("recovery_ratio", 0.94); ("ok_total", 1000.); ("failed_total", 10.);
         ("failovers", 2.);
         ("p95_steady_ms", 5.); ("p95_outage_ms", 4.); ("p95_after_restart_ms", 3.) ]
    :: List.init 3 (fun i ->
           cell [ ("series", "replica"); ("replica", string_of_int i) ]
             [ ("served", 300.) ])
    @ List.init 10 (fun i ->
          cell [ ("series", "bucket"); ("bucket", string_of_int i) ]
            [ ("t_s", float_of_int i /. 10.); ("ok", 100.);
              ("failed", if i = 2 then 10. else 0.) ]))

let e12_corruptions =
  let summary = cells_where (has "series" "summary") in
  [
    ("e12.timeline", set_config "restart_at_s" (Num 0.2));
    ("e12.recovers", summary (set_metric "recovery_ratio" 0.7));
    ("e12.few_failures", summary (set_metric "failed_total" 60.));
    ("e12.fails_over", summary (set_metric "failovers" 0.));
    ("e12.replica_cells", drop (has "replica" "2"));
    ("e12.buckets", drop (has "bucket" "9"));
    ("e12.failures_in_windows",
     cells_where (has "bucket" "8") (set_metric "failed" 1.));
  ]

(* ---------------- E13 ---------------- *)

let e13 =
  let c backend workers ops =
    cell [ ("backend", backend); ("workers", workers); ("clients", "4") ]
      [ ("ok", ops); ("failed", 0.); ("ok_per_s", ops) ]
  in
  record "E13"
    [ ("transport", Str "mem"); ("protocol", Str "heidi-text"); ("duration_s", Num 0.2);
      ("service_ms", Num 0.1); ("payload_kb", Num 2.) ]
    [ c "domains" "1" 500.; c "domains" "4" 1500.; c "systhreads" "1" 400.;
      c "systhreads" "4" 420. ]

let e13_corruptions =
  let at b w = both (has "backend" b) (has "workers" w) in
  [
    ("e13.backends", cells_where (at "systhreads" "4") (set_label "backend" "fibers"));
    ("e13.no_failures", cells_where (at "domains" "4") (set_metric "failed" 1.));
    ("e13.domain_baseline", cells_where (at "domains" "1") (set_metric "ok_per_s" 0.));
    ("e13.systhread_control", drop (at "systhreads" "1"));
    ("e13.scales", cells_where (at "domains" "4") (set_metric "ok_per_s" 1000.));
  ]

(* ---------------- E14 ---------------- *)

let e14 =
  let c arm mult ~goodput ~in_queue =
    cell [ ("propagation", arm); ("multiplier", mult) ]
      [ ("offered_per_s", 200.); ("ok", 80.); ("timeout", 0.); ("shed", in_queue);
        ("failed", 0.); ("goodput_per_s", goodput); ("executed", 80.);
        ("expired_pre_admission", 0.); ("expired_in_queue", in_queue);
        ("rejected", 0.) ]
  in
  record "E14"
    [ ("transport", Str "mem"); ("duration_s", Num 0.4); ("service_ms", Num 10.);
      ("deadline_ms", Num 30.); ("capacity_per_s", Num 200.) ]
    [ c "on" "1" ~goodput:189. ~in_queue:1.; c "on" "4" ~goodput:171. ~in_queue:240.;
      c "off" "1" ~goodput:110. ~in_queue:0.; c "off" "4" ~goodput:11.7 ~in_queue:0. ]

let e14_corruptions =
  let at a m = both (has "propagation" a) (has "multiplier" m) in
  [
    ("e14.deadline_over_service", set_config "deadline_ms" (Num 10.));
    ("e14.arms", cells_where (at "off" "1") (set_label "propagation" "partial"));
    ("e14.off_no_pre_admission_shed",
     cells_where (at "off" "1") (set_metric "expired_pre_admission" 1.));
    ("e14.off_no_queue_shed",
     cells_where (at "off" "1") (set_metric "expired_in_queue" 1.));
    ("e14.saturated", cells_where (has "multiplier" "4") (set_label "multiplier" "2"));
    ("e14.goodput_holds", cells_where (at "off" "4") (set_metric "goodput_per_s" 500.));
    ("e14.on_sheds_in_queue",
     cells_where (at "on" "4") (set_metric "expired_in_queue" 0.));
  ]

(* ---------------- E15 ---------------- *)

let e15 =
  let c proto size bytes =
    cell [ ("protocol", proto); ("payload_bytes", size) ]
      [ ("bytes_per_call", bytes); ("ns_per_call", 8e4); ("calls_per_s", 12500.) ]
  in
  record "E15"
    [ ("transport", Str "mem"); ("measure_s", Num 0.05) ]
    [ c "heidi-text" "16" 133.; c "heidi-text" "4096" 4215.; c "giop-be" "16" 179.;
      c "giop-be" "4096" 4259.; c "hcx" "16" 103.; c "hcx" "4096" 4187. ]

let e15_corruptions =
  let at p s = both (has "protocol" p) (has "payload_bytes" s) in
  [
    ("e15.bytes_over_payload",
     cells_where (at "hcx" "4096") (set_metric "bytes_per_call" 4000.));
    ("e15.hcx_below_text",
     cells_where (at "hcx" "16") (set_metric "bytes_per_call" 140.));
  ]

(* ---------------- the checks ---------------- *)

let spec_of r = Option.get (Gates.find r.experiment)

let fails_naming name failures =
  if not (List.exists (String.starts_with ~prefix:(name ^ ":")) failures) then
    Alcotest.failf "expected a failure naming %s, got [%s]" name
      (String.concat "; " failures)

let test_passes r () =
  Alcotest.(check (list string)) "no failures" [] (Record.failures (spec_of r) r)

(* Every declared gate has a corruption, and each of its corruptions
   fails it by name. *)
let test_gates r corruptions () =
  let spec = spec_of r in
  List.iter
    (fun g ->
      match List.filter (fun (name, _) -> name = g.name) corruptions with
      | [] -> Alcotest.failf "gate %s has no corruption here" g.name
      | cs ->
          List.iter
            (fun (_, corrupt) ->
              fails_naming ("gate " ^ g.name) (Record.failures spec (corrupt r)))
            cs)
    spec.s_gates

(* One corruption per validator rule, built from the experiment's own
   declaration. *)
let test_rules r () =
  let spec = spec_of r in
  let rule name corrupt =
    fails_naming ("rule " ^ name) (Record.failures spec (corrupt r))
  in
  let first = List.hd r.cells in
  let kd = List.find (fun kd -> kd.k_series = series first) spec.s_kinds in
  let in_kind c = series c = kd.k_series in
  (match to_json r with
  | Obj fs -> (
      match Record.of_json (Obj (List.remove_assoc "host" fs)) with
      | _ -> Alcotest.fail "a record without host read back"
      | exception Bad m -> fails_naming "rule required-keys" [ m ])
  | _ -> Alcotest.fail "a record renders as an object");
  rule "cells-nonempty" (fun r -> { r with cells = [] });
  let m0 = fst (List.hd first.metrics) in
  let unordered = { median = 1.; p10 = 2.; p90 = 3. } in
  rule "metric-spread"
    (cells_where (( == ) first) (fun c -> { c with metrics = [ (m0, unordered) ] }));
  rule "metric-spread" (cells_where (( == ) first) (set_metric m0 nan));
  rule "declared-config" (fun r ->
      { r with config = List.remove_assoc (fst (List.hd spec.s_config)) r.config });
  let mk = fst (List.hd kd.k_metrics) in
  rule "declared-cells"
    (cells_where in_kind (fun c ->
         { c with metrics = List.remove_assoc mk c.metrics }));
  (match kd.k_metrics with
  | (k, (Gt b | Ge b)) :: _ ->
      rule "declared-cells" (cells_where (( == ) first) (set_metric k (b -. 1.)))
  | _ -> ());
  (match kd.k_labels with
  | (k, _) :: _ ->
      rule "declared-cells"
        (cells_where in_kind (fun c ->
             { c with labels = List.remove_assoc k c.labels }))
  | [] -> ());
  rule "declared-cells" (drop in_kind);
  rule "declared-cells" (fun r ->
      { r with cells = cell [ ("series", "stray") ] [] :: r.cells })

(* The committed artifacts: the validator's rules hold (not the gates,
   whose thresholds are set for the smoke configurations), and writing
   what was read reproduces the file byte for byte. *)
let test_committed () =
  let files =
    List.filter
      (fun f ->
        String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
      (Array.to_list (Sys.readdir ".."))
  in
  Alcotest.(check bool) "found committed artifacts" true (List.length files >= 7);
  List.iter
    (fun f ->
      let path = Filename.concat ".." f in
      let r = Record.read path in
      Alcotest.(check (list string)) f [] (Record.violations (spec_of r) r);
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) (f ^ " round-trips") text (render (to_json r) ^ "\n"))
    files

let () =
  let cases =
    List.concat_map
      (fun (r, corruptions) ->
        [
          Alcotest.test_case (r.experiment ^ " record passes") `Quick (test_passes r);
          Alcotest.test_case (r.experiment ^ " gates reject corruptions") `Quick
            (test_gates r corruptions);
          Alcotest.test_case (r.experiment ^ " rules reject corruptions") `Quick
            (test_rules r);
        ])
      [ (e9, e9_corruptions); (e10, e10_corruptions); (e11, e11_corruptions);
        (e12, e12_corruptions); (e13, e13_corruptions); (e14, e14_corruptions);
        (e15, e15_corruptions) ]
  in
  Alcotest.run "bench_record"
    [
      ("gates", cases);
      ("artifacts", [ Alcotest.test_case "committed BENCH_*.json" `Quick test_committed ]);
    ]
