(* Benchmark harness: regenerates every table/figure-level artifact of
   the paper's evaluation story, one section per experiment id from
   DESIGN.md / EXPERIMENTS.md.

   Timed experiments use Bechamel (OLS estimate of ns/run); structural
   artifacts (Table 1/2, code-size accounting) are printed directly. *)

open Bechamel
open Toolkit

(* ---------------- bechamel plumbing ---------------- *)

let run_tests (tests : Test.t) : (string * float) list =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name o acc ->
      let est =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
      in
      (name, est) :: acc)
    results []
  |> List.sort compare

let print_results ?(unit_ = "ns/call") results =
  List.iter (fun (name, est) -> Printf.printf "  %-46s %10.1f %s\n" name est unit_) results

let section id title = Printf.printf "\n==== %s: %s ====\n" id title

(* ---------------- shared fixtures ---------------- *)

let heidi_mapping = Option.get (Mappings.Registry.find "heidi-cpp")
let corba_mapping = Option.get (Mappings.Registry.find "corba-cpp")

let map_fn (m : Mappings.Mapping.t) name =
  Option.get (Template.Maps.find m.Mappings.Mapping.maps name)

let fig3_idl =
  {|module Heidi {
      interface S;
      enum Status {Start, Stop};
      typedef sequence<S> SSequence;
      interface S { void ping(); };
      interface A : S {
        void f(in A a);
        void g(incopy S s);
        void p(in long l = 0);
        void q(in Status s = Heidi::Start);
        readonly attribute Status button;
        void s(in boolean b = TRUE);
        void t(in SSequence s);
      };
    };|}

(* ================= T1: Table 1 — IDL-to-C++ type mappings ========== *)

let t1 () =
  section "T1" "Table 1: IDL to C++ type mappings (prescribed vs alternate)";
  let prescribed = map_fn corba_mapping "CORBA::MapType" in
  let alternate = map_fn heidi_mapping "CPP::MapType" in
  let idl_types =
    [ "long"; "boolean"; "float"; "short"; "double"; "char"; "octet"; "string" ]
  in
  Record.table
    [ "IDL Type"; "Prescribed C++ Type"; "Alternate C++ Mapping" ]
    (List.map (fun t -> [ t; prescribed t; alternate t ]) idl_types);
  print_endline "  (paper rows: long/CORBA::Long/long, boolean/CORBA::Boolean/XBool,";
  print_endline "   float/CORBA::Float/float -- reproduced above)"

(* ================= T2: Table 2 — reference usages =================== *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let t2 () =
  section "T2" "Table 2: CORBA-prescribed vs legacy C++ usages";
  let src = "interface A { void f(in A r); };" in
  let gen mapping =
    (Core.Compiler.compile_string ~file_base:"A" ~mapping src).Core.Compiler.files
  in
  let corba_hh = List.assoc "A.hh" (gen corba_mapping) in
  let heidi_hh = List.assoc "A.hh" (gen heidi_mapping) in
  let grep needle text =
    List.filter (fun l -> contains l needle) (String.split_on_char '\n' text)
  in
  print_endline "  CORBA-prescribed (from corba-cpp output):";
  List.iter (Printf.printf "    %s\n") (grep "_ptr" corba_hh);
  List.iter (Printf.printf "    %s\n") (grep "_var" corba_hh);
  print_endline "  Legacy usage preserved (from heidi-cpp output):";
  List.iter (Printf.printf "    %s\n") (grep "virtual void f" heidi_hh)

(* ================= E1: dispatch strategies ========================= *)

(* Section 2: string-comparison dispatch "can be very expensive for
   interfaces with a large number of methods with long names"; nested
   comparison or a hash table dispatch faster. *)
let e1 () =
  section "E1" "dispatch strategy cost vs interface width (ns per lookup)";
  let sizes = [ 4; 16; 64; 256 ] in
  let mk_names n =
    (* Long names with a shared prefix: the adversarial case for strcmp
       chains the paper describes. *)
    Array.init n (fun i ->
        Printf.sprintf "get_multimedia_stream_configuration_parameter_%04d" i)
  in
  let tests =
    List.concat_map
      (fun n ->
        let names = mk_names n in
        let handlers = Array.to_list (Array.map (fun s -> (s, s)) names) in
        List.map
          (fun strat ->
            let tbl = Orb.Dispatch.compile strat handlers in
            let i = ref 0 in
            Test.make
              ~name:
                (Printf.sprintf "%-6s n=%3d" (Orb.Dispatch.strategy_to_string strat) n)
              (Staged.stage (fun () ->
                   let name = names.(!i) in
                   i := (!i + 7) mod n;
                   ignore (Orb.Dispatch.lookup tbl name))))
          Orb.Dispatch.all_strategies)
      sizes
  in
  print_results ~unit_:"ns/lookup" (run_tests (Test.make_grouped ~name:"dispatch" tests))

(* ================= E2: marshaling codecs =========================== *)

let e2 () =
  section "E2" "marshaling cost: HeidiRMI text codec vs CDR (binary)";
  let text = Wire.Text_codec.codec in
  let cdr = Wire.Cdr_codec.codec Wire.Cdr_codec.Big_endian in
  let module W = Wire.Wvalue in
  let workloads =
    [
      ("16 longs", W.Seq (List.init 16 (fun i -> W.Long (1000000 + i))));
      ("8 strings", W.Seq (List.init 8 (fun i ->
           W.String (Printf.sprintf "control-message-%d" i))));
      ( "8 structs",
        W.Seq
          (List.init 8 (fun i ->
               W.Group [ W.String "media"; W.Long i; W.Bool (i mod 2 = 0); W.Double 0.5 ]))
      );
      ("1024 longs", W.Seq (List.init 1024 (fun i -> W.Long i)));
    ]
  in
  let size codec v =
    let e = codec.Wire.Codec.encoder () in
    W.encode e v;
    String.length (e.Wire.Codec.finish ())
  in
  Record.table
    [ "workload"; "text bytes"; "cdr bytes" ]
    (List.map
       (fun (name, v) ->
         [ name; string_of_int (size text v); string_of_int (size cdr v) ])
       workloads);
  let tests =
    List.concat_map
      (fun (wname, v) ->
        List.concat_map
          (fun (cname, codec) ->
            let payload =
              let e = codec.Wire.Codec.encoder () in
              W.encode e v;
              e.Wire.Codec.finish ()
            in
            [
              Test.make
                ~name:(Printf.sprintf "encode %-10s %-4s" wname cname)
                (Staged.stage (fun () ->
                     let e = codec.Wire.Codec.encoder () in
                     W.encode e v;
                     ignore (e.Wire.Codec.finish ())));
              Test.make
                ~name:(Printf.sprintf "decode %-10s %-4s" wname cname)
                (Staged.stage (fun () ->
                     ignore (W.decode_like (codec.Wire.Codec.decoder payload) v)));
            ])
          [ ("text", text); ("cdr", cdr) ])
      workloads
  in
  print_results ~unit_:"ns/op" (run_tests (Test.make_grouped ~name:"codec" tests))

(* ================= E3: end-to-end call latency ===================== *)

let e3 () =
  section "E3" "remote call round-trip latency";
  let bench_pair name protocol transport host =
    let server = Orb.create ~protocol ~transport ~host () in
    Orb.start server;
    let target =
      Orb.export server
        (Orb.Skeleton.create ~type_id:"IDL:Bench/Echo:1.0"
           [
             ("echo", fun args results ->
                 results.Wire.Codec.put_long (args.Wire.Codec.get_long ()));
           ])
    in
    let client = Orb.create ~protocol ~transport ~host () in
    ignore (Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_long 0));
    let test =
      Test.make ~name
        (Staged.stage (fun () ->
             match
               Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_long 7)
             with
             | Some d -> ignore (d.Wire.Codec.get_long ())
             | None -> assert false))
    in
    ( test,
      fun () ->
        Orb.shutdown client;
        Orb.shutdown server )
  in
  let pairs =
    [
      bench_pair "mem/text" Orb.Protocol.text "mem" "local";
      bench_pair "mem/giop" (Giop.protocol ()) "mem" "local";
      bench_pair "tcp/text" Orb.Protocol.text "tcp" "127.0.0.1";
      bench_pair "tcp/giop" (Giop.protocol ()) "tcp" "127.0.0.1";
    ]
  in
  print_results (run_tests (Test.make_grouped ~name:"call" (List.map fst pairs)));
  List.iter (fun (_, cleanup) -> cleanup ()) pairs

(* ================= E4: template compilation ======================== *)

let e4 () =
  section "E4"
    "two-step codegen: template compile vs cached; EST rebuild vs parse";
  let header_src = List.assoc "header" heidi_mapping.Mappings.Mapping.templates in
  let maps = heidi_mapping.Mappings.Mapping.maps in
  let ast = Idl.Parser.parse_string fig3_idl in
  let sem = Est.Resolve.spec ast in
  let est = Est.Build.of_spec sem in
  Est.Node.add_prop est "fileBase" "A";
  let compiled = Template.Parse.parse ~name:"header" header_src in
  let est_text = Est.Dump.to_text est in
  let tests =
    [
      (* "the first step ... need only be performed once for a particular
         code-generation template" — what re-doing it costs: *)
      Test.make ~name:"step1+step2: parse template every run"
        (Staged.stage (fun () ->
             let t = Template.Parse.parse ~name:"header" header_src in
             ignore (Template.Eval.run ~maps t est)));
      Test.make ~name:"step2 only: pre-compiled template"
        (Staged.stage (fun () -> ignore (Template.Eval.run ~maps compiled est)));
      (* "evaluating a perl program that directly rebuilds the EST ... is
         certainly more efficient than parsing an external representation" *)
      Test.make ~name:"EST: rebuild in-memory (resolve+build)"
        (Staged.stage (fun () -> ignore (Est.Build.of_spec (Est.Resolve.spec ast))));
      Test.make ~name:"EST: parse external representation"
        (Staged.stage (fun () -> ignore (Est.Dump.of_text est_text)));
      Test.make ~name:"front-end: full parse+resolve+build"
        (Staged.stage (fun () ->
             ignore
               (Est.Build.of_spec (Est.Resolve.spec (Idl.Parser.parse_string fig3_idl)))));
    ]
  in
  print_results ~unit_:"ns/run" (run_tests (Test.make_grouped ~name:"template" tests));
  (* Build scaling: one module shape repeated 8 to 64 times. Time is the
     best of 15 builds; the allocation count is exact. Flat per-declaration
     columns mean a build linear in the declarations. *)
  let rows =
    List.map
      (fun modules ->
        let sem = Est.Resolve.spec (Idl.Parser.parse_string (Scale_idl.generate ~modules)) in
        let decls = float_of_int (Hashtbl.length sem.Est.Sem.entities) in
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Est.Build.of_spec sem));
        let words = Gc.minor_words () -. w0 in
        let best = ref infinity in
        for _ = 1 to 15 do
          let t0 = Unix.gettimeofday () in
          ignore (Sys.opaque_identity (Est.Build.of_spec sem));
          best := Float.min !best (Unix.gettimeofday () -. t0)
        done;
        [
          string_of_int modules;
          Printf.sprintf "%.0f" decls;
          Printf.sprintf "%.2f" (!best *. 1e3);
          Printf.sprintf "%.1f" (!best *. 1e6 /. decls);
          Printf.sprintf "%.0f" (words /. decls);
        ])
      [ 8; 16; 32; 64 ]
  in
  print_endline "  EST build scaling (bench/scale_idl.ml spec):";
  Record.table
    [ "modules"; "decls"; "build ms"; "us/decl"; "minor words/decl" ]
    rows

(* ================= E5: generated code size ========================= *)

let e5 () =
  section "E5" "generated code size per mapping (the '700 lines of tcl' claim)";
  let idl_suite =
    [
      ("A.idl (Fig. 3)", fig3_idl);
      ( "heidi.idl",
        {|module Heidi {
            enum Status { Start, Stop, Pause };
            struct MediaInfo { string name; long bitrate_kbps; boolean live; };
            typedef sequence<MediaInfo> MediaList;
            typedef sequence<long> LongSeq;
            exception SourceBusy { string source; long retry_after_ms; };
            interface Source {
              void attach(in string sink_url) raises (SourceBusy);
              readonly attribute Status state;
              MediaInfo describe();
            };
            interface Camera : Source { void zoom(in long level); oneway void hint(in string text); };
            interface Mixer {
              long add_input(in Camera cam);
              MediaList inputs();
              LongSeq levels();
              void set_levels(in LongSeq values);
            };
          };|} );
      ("Receiver.idl (Fig. 10)", "interface Receiver { void print(in string text); };");
    ]
  in
  let loc text =
    List.length
      (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text))
  in
  let idl_loc = List.fold_left (fun acc (_, src) -> acc + loc src) 0 idl_suite in
  let rows =
    List.map
      (fun (m : Mappings.Mapping.t) ->
        let total =
          List.fold_left
            (fun acc (_, src) ->
              let r = Core.Compiler.compile_string ~file_base:"x" ~mapping:m src in
              List.fold_left (fun acc (_, c) -> acc + loc c) acc r.Core.Compiler.files)
            0 idl_suite
        in
        [
          m.Mappings.Mapping.name;
          m.Mappings.Mapping.language;
          string_of_int idl_loc;
          string_of_int total;
          Printf.sprintf "%.1fx" (float_of_int total /. float_of_int idl_loc);
        ])
      Mappings.Registry.all
  in
  Record.table
    [ "mapping"; "language"; "IDL LoC"; "generated LoC"; "expansion" ]
    rows;
  let tcl = Option.get (Mappings.Registry.find "tcl") in
  let tcl_generated =
    List.fold_left
      (fun acc (_, src) ->
        let r = Core.Compiler.compile_string ~file_base:"x" ~mapping:tcl src in
        List.fold_left (fun acc (_, c) -> acc + loc c) acc r.Core.Compiler.files)
      0 idl_suite
  in
  Printf.printf
    "  tcl: %d generated lines for this suite; the paper reports the\n\
    \  hand-written tcl ORB runtime itself at ~700 lines / two weeks (4.2).\n"
    tcl_generated

(* ================= E6: caches ====================================== *)

let e6 () =
  section "E6" "stub/skeleton/connection caching (Section 3.1)";
  let orb = Orb.create () in
  Orb.start orb;
  let build () =
    Orb.Skeleton.create ~type_id:"IDL:Bench/S:1.0"
      (List.init 8 (fun i ->
           (Printf.sprintf "op%d" i, fun _ (_ : Wire.Codec.encoder) -> ())))
  in
  let key = Orb.servant_key () in
  ignore (Orb.export_cached orb ~key ~type_id:"IDL:Bench/S:1.0" build);
  let skel_tests =
    [
      Test.make ~name:"skeleton: cache hit (export_cached)"
        (Staged.stage (fun () ->
             ignore (Orb.export_cached orb ~key ~type_id:"IDL:Bench/S:1.0" build)));
      Test.make ~name:"skeleton: build + register fresh"
        (Staged.stage (fun () -> ignore (Orb.export orb (build ()))));
    ]
  in
  print_results ~unit_:"ns/export" (run_tests (Test.make_grouped ~name:"skelcache" skel_tests));
  Orb.shutdown orb;
  (* Connection cache: calls on a cached connection vs connecting per
     call — the cost HeidiRMI's connection reuse avoids. *)
  let server = Orb.create ~transport:"tcp" ~host:"127.0.0.1" () in
  Orb.start server;
  let target =
    Orb.export server
      (Orb.Skeleton.create ~type_id:"IDL:Bench/Echo:1.0"
         [ ("ping", fun _ results -> results.Wire.Codec.put_bool true) ])
  in
  let cached_client = Orb.create ~transport:"tcp" ~host:"127.0.0.1" () in
  ignore (Orb.invoke cached_client target ~op:"ping" (fun _ -> ()));
  let conn_tests =
    [
      Test.make ~name:"call: cached TCP connection"
        (Staged.stage (fun () ->
             ignore (Orb.invoke cached_client target ~op:"ping" (fun _ -> ()))));
      Test.make ~name:"call: connect per call (no cache)"
        (Staged.stage (fun () ->
             let c = Orb.create ~transport:"tcp" ~host:"127.0.0.1" () in
             ignore (Orb.invoke c target ~op:"ping" (fun _ -> ()));
             Orb.shutdown c));
    ]
  in
  print_results (run_tests (Test.make_grouped ~name:"conncache" conn_tests));
  Printf.printf "  connections opened by the cached client: %d\n"
    (Orb.connections_opened cached_client);
  Orb.shutdown cached_client;
  Orb.shutdown server

(* ================= E7: interceptors and smart proxies ============== *)

(* Ablation for the Section 5 comparison: what do the expose-a-hook
   customizations (filters/interceptors, smart proxies) cost or save on
   this runtime? *)
let e7 () =
  section "E7" "interceptor overhead and smart-proxy caching (Section 5)";
  let mk_pair ~interceptors =
    let server = Orb.create () in
    Orb.start server;
    let target =
      Orb.export server
        (Orb.Skeleton.create ~type_id:"IDL:Bench/Echo:1.0"
           [
             ("get", fun _ results -> results.Wire.Codec.put_long 42);
           ])
    in
    let client = Orb.create () in
    if interceptors then begin
      (* Five no-op interceptors on each side: the per-hop cost. *)
      for i = 1 to 5 do
        Orb.Interceptor.add (Orb.client_interceptors client)
          (Orb.Interceptor.make (Printf.sprintf "noop-c%d" i));
        Orb.Interceptor.add (Orb.server_interceptors server)
          (Orb.Interceptor.make (Printf.sprintf "noop-s%d" i))
      done
    end;
    ignore (Orb.invoke client target ~op:"get" (fun _ -> ()));
    (server, client, target)
  in
  let s0, c0, t0 = mk_pair ~interceptors:false in
  let s1, c1, t1 = mk_pair ~interceptors:true in
  let proxy = Orb.smart_proxy c0 t0 in
  ignore (Orb.Smart.call proxy ~op:"get" (fun _ -> ()));
  let tests =
    [
      Test.make ~name:"call: no interceptors"
        (Staged.stage (fun () ->
             ignore (Orb.invoke c0 t0 ~op:"get" (fun _ -> ()))));
      Test.make ~name:"call: 5+5 no-op interceptors"
        (Staged.stage (fun () ->
             ignore (Orb.invoke c1 t1 ~op:"get" (fun _ -> ()))));
      Test.make ~name:"smart proxy: cache hit (no network)"
        (Staged.stage (fun () ->
             ignore (Orb.Smart.call proxy ~op:"get" (fun _ -> ()))));
    ]
  in
  print_results (run_tests (Test.make_grouped ~name:"hooks" tests));
  Printf.printf "  smart proxy hits so far: %d (misses %d)\n" (Orb.Smart.hits proxy)
    (Orb.Smart.misses proxy);
  Orb.shutdown c0; Orb.shutdown s0; Orb.shutdown c1; Orb.shutdown s1

(* ================= E3b: payload-size sweep ========================= *)

(* Thread-wakeup-heavy loops confuse OLS sampling, so this sweep times a
   plain loop on the monotonic clock instead of using bechamel. *)
let time_direct name f =
  (* Warm up, then measure ~0.4s. *)
  for _ = 1 to 50 do f () done;
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.4 do
    f ();
    incr n
  done;
  let per = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int !n in
  Printf.printf "  %-46s %10.1f ns/call\n" name per

let e3b () =
  section "E3b" "call latency vs payload size (text protocol, mem transport)";
  let server = Orb.create () in
  Orb.start server;
  let target =
    Orb.export server
      (Orb.Skeleton.create ~type_id:"IDL:Bench/Blob:1.0"
         [
           ("swallow", fun args results ->
               let s = args.Wire.Codec.get_string () in
               results.Wire.Codec.put_long (String.length s));
         ])
  in
  let client = Orb.create () in
  ignore (Orb.invoke client target ~op:"swallow" (fun e -> e.Wire.Codec.put_string ""));
  List.iter
    (fun bytes ->
      let blob = String.make bytes 'x' in
      time_direct
        (Printf.sprintf "payload %6d B" bytes)
        (fun () ->
          ignore
            (Orb.invoke client target ~op:"swallow" (fun e ->
                 e.Wire.Codec.put_string blob))))
    [ 16; 256; 4096; 65536 ];
  Orb.shutdown client;
  Orb.shutdown server

(* ================= E8: fault-rate sweep ============================ *)

(* Robustness economics: what do the fault-tolerance layers (retry
   policy, deadlines) buy under increasing transport fault rates, and
   what do they cost? Seeded plans make every row reproducible. *)
let e8 () =
  section "E8" "call success vs injected fault rate (faulty:mem, seeded plans)";
  let calls = 200 in
  let run_at rate =
    Orb.Transport.mem_reset ();
    let server = Orb.create ~transport:"faulty:mem" ~host:"local" () in
    Orb.start server;
    let target =
      Orb.export server
        (Orb.Skeleton.create ~type_id:"IDL:Bench/Echo:1.0"
           [
             ("echo", fun args results ->
                 results.Wire.Codec.put_long (args.Wire.Codec.get_long ()));
           ])
    in
    let client =
      Orb.create ~transport:"mem" ~host:"local" ~call_timeout:0.05
        ~retry:{ Orb.Retry.default with base_delay = 0.001; max_delay = 0.01 }
        ()
    in
    (* Two fault families: refused connects (transient — the retry
       policy absorbs them) and stalled reply reads (the deadline
       converts a hang into a fast Timeout, never retried). *)
    Orb.Transport.Fault.set_plan
      (Orb.Transport.Fault.seeded ~seed:2000 ~refuse_connect:rate
         ~stall_read:(rate /. 2.)
         ~side:(fun peer -> not (contains peer "(client)"))
         ());
    let ok = ref 0 and failed = ref 0 and timed_out = ref 0 in
    for i = 1 to calls do
      match
        Orb.invoke client target ~op:"echo" (fun e -> e.Wire.Codec.put_long i)
      with
      | Some _ -> incr ok
      | None -> ()
      | exception Orb.Transport.Timeout _ -> incr timed_out
      | exception _ -> incr failed
    done;
    let st = Orb.stats client in
    Orb.Transport.Fault.clear ();
    Orb.shutdown client;
    Orb.shutdown server;
    [
      Printf.sprintf "%.0f%%" (rate *. 100.);
      string_of_int !ok;
      string_of_int !failed;
      string_of_int !timed_out;
      string_of_int st.Orb.retries;
      string_of_int st.Orb.opened;
    ]
  in
  Record.table
    [ "fault rate"; "ok"; "failed"; "timeout"; "retries"; "conns opened" ]
    (List.map run_at [ 0.0; 0.05; 0.1; 0.2 ]);
  Printf.printf
    "  (%d calls per row; retry policy = 3 attempts. Refused connects are\n\
    \  retried (duplicate-safe); stalled replies surface as Timeout within\n\
    \  the 50ms deadline and are never retried.)\n"
    calls

(* ================= E9: observability overhead ====================== *)

(* E9's sample span and the traced client's metrics snapshot, as cells:
   strings become labels, numbers metrics. *)
let span_cell (s : Obs.Trace.span) =
  let opt k = Option.fold ~none:[] ~some:(fun v -> [ (k, v) ]) in
  Record.cell
    ([ ("series", "sample_span"); ("trace_id", s.trace_id); ("span_id", s.span_id) ]
    @ opt "parent_id" s.parent_id
    @ [ ("kind", Obs.Trace.kind_to_string s.kind); ("operation", s.operation);
        ("endpoint", s.endpoint) ]
    @ opt "breaker" s.breaker
    @ opt "outcome" (Option.map Obs.Trace.outcome_to_string s.outcome)
    @ List.rev_map (fun (k, v) -> ("note:" ^ k, v)) s.notes)
    [ ("req_id", float_of_int s.req_id); ("started_at", s.started_at);
      ("duration_s", Obs.Trace.duration s); ("marshal_s", s.marshal_s);
      ("send_s", s.send_s); ("wait_s", s.wait_s); ("unmarshal_s", s.unmarshal_s);
      ("retries", float_of_int s.retries) ]

let snapshot_cells (m : Obs.Metrics.snapshot) =
  let named series name = [ ("series", series); ("name", name) ] in
  let n = float_of_int in
  List.concat_map
    (fun (h : Obs.Metrics.hist_view) ->
      Record.cell (named "latency" h.name)
        [ ("total", n h.total); ("sum_s", h.sum_s); ("max_s", h.max_s);
          ("mean_s", h.mean_s) ]
      :: List.filter_map
           (fun (le, count) ->
             let le = if le = infinity then "inf" else Record.num_label le in
             if count = 0 then None
             else
               Some
                 (Record.cell (named "latency_bucket" h.name @ [ ("le_s", le) ])
                    [ ("count", n count) ]))
           h.buckets)
    m.latencies
  @ List.map
      (fun (e : Obs.Metrics.bytes_view) ->
        Record.cell [ ("series", "endpoint"); ("endpoint", e.endpoint) ]
          [ ("bytes_in", n e.bytes_in); ("bytes_out", n e.bytes_out);
            ("reads", n e.reads); ("writes", n e.writes) ])
      m.endpoints
  @ List.map
      (fun (k, v) -> Record.cell (named "counter" k) [ ("value", n v) ])
      m.counters
  @ List.map (fun (k, v) -> Record.cell (named "gauge" k) [ ("value", v) ]) m.gauges

(* Trace-off vs trace-on, same workload (mem transport, text protocol):
   what does a fully traced call — client span with four phase timings,
   context propagated on the wire, server span, byte counters, two
   histogram observations, ring-buffer export — cost over the disabled
   baseline (one boolean load per probe point)? The measurement is
   repeated [repeats] times; the artifact reports the median overhead
   with its p10/p90 spread. Writes BENCH_obs.json, checked by the e9.*
   gates in the smoke test. *)
let e9 ?(out = "BENCH_obs.json") ?(calls = 2000) ?(repeats = 11) () =
  section "E9" "observability overhead: trace-off vs trace-on (mem, text)";
  let mk_pair ?server_obs ?client_obs () =
    let server = Orb.create ?obs:server_obs () in
    Orb.start server;
    let target =
      Orb.export server
        (Orb.Skeleton.create ~type_id:"IDL:Bench/Echo:1.0"
           [
             ("echo", fun args results ->
                 results.Wire.Codec.put_string (args.Wire.Codec.get_string ()));
           ])
    in
    let client = Orb.create ?obs:client_obs () in
    (server, client, target)
  in
  let batch client target n =
    let call () =
      ignore
        (Orb.invoke client target ~op:"echo" (fun e ->
             e.Wire.Codec.put_string "ping"))
    in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do call () done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  (* Baseline pair: no obs supplied = the stock disabled instance.
     Traced pair: both sides enabled, spans exported to stock (bounded)
     ring buffers. *)
  let s0, c0, t0 = mk_pair () in
  let server_obs = Obs.create () and client_obs = Obs.create () in
  let client_ring, client_spans = Obs.Sink.ring () in
  Obs.add_sink client_obs client_ring;
  let server_ring, server_spans = Obs.Sink.ring () in
  Obs.add_sink server_obs server_ring;
  let s1, c1, t1 = mk_pair ~server_obs ~client_obs () in
  ignore (batch c0 t0 50);  (* warm connections, caches, code *)
  ignore (batch c1 t1 50);
  let median = Record.quantile 0.5 in
  (* One repeat: interleave off/on batches so clock drift, CPU frequency
     and GC state bias neither side; per side, take the median batch. *)
  let n_batches = 5 in
  let per_batch = max 1 (calls / n_batches) in
  let measure () =
    let offs = ref [] and ons = ref [] in
    for _ = 1 to n_batches do
      offs := batch c0 t0 per_batch :: !offs;
      ons := batch c1 t1 per_batch :: !ons
    done;
    (median !offs, median !ons)
  in
  let runs = List.init repeats (fun _ -> measure ()) in
  let pcts = List.map (fun (off, on) -> (on -. off) /. off *. 100.) runs in
  let spans_of obs = float_of_int (Obs.snapshot obs).Obs.spans_emitted in
  Orb.shutdown c0;
  Orb.shutdown s0;
  Orb.shutdown c1;
  Orb.shutdown s1;
  (* Cross-check the traces themselves: the last client/server span pair
     must belong to one trace. *)
  let last l = List.nth l (List.length l - 1) in
  let cs = last (client_spans ()) and ss = last (server_spans ()) in
  let shared = cs.Obs.Trace.trace_id = ss.Obs.Trace.trace_id in
  let trace arm ns =
    { Record.labels = [ ("series", "trace"); ("trace", arm) ];
      metrics = [ ("ns_per_call", Record.spread ns) ] }
  in
  let r =
    Record.make ~experiment:"E9" ~repeats
      ~config:
        Record.[ ("transport", Str "mem"); ("protocol", Str "heidi-text");
                 ("calls", Num (float_of_int calls)) ]
      ([
         trace "off" (List.map fst runs);
         trace "on" (List.map snd runs);
         { labels = [ ("series", "overhead") ];
           metrics = [ ("overhead_pct", Record.spread pcts) ] };
         Record.cell
           [ ("series", "spans"); ("shared_trace_id", string_of_bool shared) ]
           [ ("client_spans", spans_of client_obs);
             ("server_spans", spans_of server_obs) ];
         span_cell cs;
       ]
      @ snapshot_cells (Obs.snapshot client_obs).Obs.metrics)
  in
  Record.print r;
  Record.write out r

(* ================= E10: overload policy ============================ *)

(* The server-hardening ablation: the same CPU-bound workload thrown at
   a bounded worker pool (reject admission) and at the paper's
   thread-per-connection model, at increasing client counts. Closed-loop
   clients (next call only after the previous outcome) on the mem
   transport; every outcome is counted, so goodput + rejections +
   failures accounts for every call. Writes BENCH_overload.json, checked
   by the e10.* gates in the smoke test.

   Honesty note: OCaml systhreads share one runtime lock, so total
   CPU throughput is bounded by one core in BOTH configurations — the
   difference under overload is where the queueing happens. The pool
   keeps a bounded queue and sheds the excess (goodput holds, ok-call
   latency stays near workers x service time); thread-per-connection
   accepts everything, so every in-flight call queues inside the
   scheduler and the latency tail grows with the client count. *)
let e10 ?(out = "BENCH_overload.json") ?(duration = 1.5)
    ?(client_counts = [ 4; 8; 32; 64 ]) () =
  section "E10" "overload: bounded worker pool vs thread-per-connection";
  let spin_iters = 1_000_000 in
  let spin () =
    (* Pure OCaml work, no syscalls: deterministic service demand per
       call regardless of clock resolution. *)
    let x = ref 0 in
    for i = 1 to spin_iters do
      x := (!x + (i * i)) land 0xffffff
    done;
    !x
  in
  let service_ms =
    let reps = 20 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (spin ())
    done;
    (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps
  in
  let work_skeleton () =
    Orb.Skeleton.create ~type_id:"IDL:Bench/Work:1.0"
      [ ("work", fun _ results -> results.Wire.Codec.put_long (spin ())) ]
  in
  let servers =
    [
      ( "pool-4x16-reject",
        {
          Orb.default_server_policy with
          pool =
            Some
              {
                Orb.Pool.default_config with
                workers = 4;
                queue_capacity = 16;
                admission = Orb.Pool.Reject;
              };
        } );
      ("thread-per-conn", { Orb.default_server_policy with pool = None });
    ]
  in
  let run_cell (server_name, policy) n_clients =
    Orb.Transport.mem_reset ();
    let server =
      Orb.create ~transport:"mem" ~host:"local" ~server_policy:policy ()
    in
    Orb.start server;
    let target = Orb.export server (work_skeleton ()) in
    let ok = Atomic.make 0
    and rejected = Atomic.make 0
    and failed = Atomic.make 0 in
    let lat_mutex = Mutex.create () in
    let latencies = ref [] in
    let deadline = Unix.gettimeofday () +. duration in
    let threads =
      List.init n_clients (fun _ ->
          Thread.create
            (fun () ->
              let client =
                Orb.create ~transport:"mem" ~host:"local"
                  ~retry:Orb.Retry.none ()
              in
              let mine = ref [] in
              while Unix.gettimeofday () < deadline do
                let t0 = Unix.gettimeofday () in
                match Orb.invoke client target ~op:"work" (fun _ -> ()) with
                | Some _ ->
                    mine := (Unix.gettimeofday () -. t0) :: !mine;
                    Atomic.incr ok
                | None -> Atomic.incr failed
                | exception Orb.System_exception _ ->
                    Atomic.incr rejected;
                    (* Well-behaved client: back off briefly after a
                       rejection instead of hammering the admission
                       check in a tight loop (which would burn the very
                       CPU the workers need and turn the measurement
                       into a self-inflicted DoS). *)
                    Thread.delay 0.002
                | exception _ -> Atomic.incr failed
              done;
              Mutex.lock lat_mutex;
              latencies := List.rev_append !mine !latencies;
              Mutex.unlock lat_mutex;
              Orb.shutdown client)
            ())
    in
    List.iter Thread.join threads;
    Orb.shutdown server;
    let ms p = Record.quantile p !latencies *. 1000. in
    let n a = float_of_int (Atomic.get a) in
    Record.cell
      [ ("server", server_name); ("clients", string_of_int n_clients) ]
      [ ("ok", n ok); ("rejected", n rejected); ("failed", n failed);
        ("ok_per_s", n ok /. duration); ("p50_ms", ms 0.5); ("p95_ms", ms 0.95);
        ("max_ms", ms 1.0) ]
  in
  let cells =
    List.concat_map
      (fun server -> List.map (run_cell server) client_counts)
      servers
  in
  let r =
    Record.make ~experiment:"E10"
      ~config:
        Record.[ ("transport", Str "mem"); ("protocol", Str "heidi-text");
                 ("duration_s", Num duration); ("service_ms", Num service_ms) ]
      cells
  in
  Record.print r;
  Printf.printf
    "  (service demand per call: %.2f ms of pure-OCaml CPU; closed-loop\n\
    \  clients, %.2gs per cell. Rejections are answered calls, not drops.)\n"
    service_ms duration;
  Record.write out r

(* Client connection multiplexing (DESIGN.md "Client connection model"):
   N closed-loop threads share ONE client ORB — and therefore one cached
   connection — against a servant that sleeps for a fixed service time.
   Sleeping releases the OCaml runtime lock, so throughput depends only
   on how many calls the connection lets in flight: the serialized
   client (the demux at max_in_flight = 1) is pinned near
   1/service_time no matter how many threads pile on, while the default
   client scales until it hits the in-flight cap or the thread count. *)
let e11 ?(out = "BENCH_mux.json") ?(duration = 0.4)
    ?(thread_counts = [ 1; 2; 4; 8; 16; 32 ]) () =
  section "E11" "client mux: pipelined calls over one shared connection";
  let nap_ms = 2.0 in
  let nap_skeleton () =
    Orb.Skeleton.create ~type_id:"IDL:Bench/Nap:1.0"
      [
        ( "nap",
          fun _ results ->
            Thread.delay (nap_ms /. 1000.);
            results.Wire.Codec.put_bool true );
      ]
  in
  (* Enough workers that the server is never the bottleneck: the cell
     with 32 threads and the default 32-deep mux needs 32 concurrent
     naps in service. *)
  let wide_pool =
    {
      Orb.default_server_policy with
      pool =
        Some
          (* Sleep-bound servants want way more workers than cores:
             systhreads overlap the naps without burning 48 domains. *)
          {
            Orb.Pool.workers = 48;
            queue_capacity = 64;
            admission = Orb.Pool.Reject;
            backend = Orb.Pool.Systhreads;
          };
    }
  in
  let protocols =
    [ ("heidi-text", fun () -> Orb.Protocol.text); ("giop", fun () -> Giop.protocol ()) ]
  in
  (* The timeout arm is the default mux with an ORB-wide 1 s call
     deadline: every reply wait is a deadline wait, so it must keep pace
     with the untimed arm. *)
  let modes =
    [
      ("mux-32", Orb.default_mux, None);
      ("mux-32+timeout", Orb.default_mux, Some 1.0);
      ("serialized", { Orb.max_in_flight = 1 }, None);
    ]
  in
  let run_cell (proto_name, mk_protocol) (mode_name, mux, call_timeout)
      threads =
    Orb.Transport.mem_reset ();
    let protocol = mk_protocol () in
    let server =
      Orb.create ~protocol ~transport:"mem" ~host:"local"
        ~server_policy:wide_pool ()
    in
    Orb.start server;
    let target = Orb.export server (nap_skeleton ()) in
    let client =
      Orb.create ~protocol ~transport:"mem" ~host:"local" ~mux ?call_timeout
        ~retry:Orb.Retry.none ()
    in
    (* Warm the connection cache so every thread shares one stream. *)
    ignore (Orb.invoke client target ~op:"nap" (fun _ -> ()));
    let ok = Atomic.make 0 and failed = Atomic.make 0 in
    let deadline = Unix.gettimeofday () +. duration in
    let workers =
      List.init threads (fun _ ->
          Thread.create
            (fun () ->
              while Unix.gettimeofday () < deadline do
                match Orb.invoke client target ~op:"nap" (fun _ -> ()) with
                | Some _ -> Atomic.incr ok
                | None -> Atomic.incr failed
                | exception _ -> Atomic.incr failed
              done)
            ())
    in
    List.iter Thread.join workers;
    let st = Orb.stats client in
    Orb.shutdown client;
    Orb.shutdown server;
    let n a = float_of_int (Atomic.get a) in
    Record.cell
      [ ("protocol", proto_name); ("mode", mode_name);
        ("max_in_flight", string_of_int mux.Orb.max_in_flight);
        ("call_timeout_s", Record.num_label (Option.value call_timeout ~default:0.));
        ("threads", string_of_int threads) ]
      [ ("ok", n ok); ("failed", n failed); ("ok_per_s", n ok /. duration);
        ("peak_in_flight", float_of_int st.Orb.mux_peak_in_flight);
        ("connections", float_of_int st.Orb.opened) ]
  in
  let cells =
    List.concat_map
      (fun proto ->
        List.concat_map
          (fun mode -> List.map (run_cell proto mode) thread_counts)
          modes)
      protocols
  in
  let r =
    Record.make ~experiment:"E11"
      ~config:
        Record.[ ("transport", Str "mem"); ("duration_s", Num duration);
                 ("service_ms", Num nap_ms) ]
      cells
  in
  Record.print r;
  Printf.printf
    "  (service time per call: %.1f ms of server-side sleep; closed-loop\n\
    \  threads sharing ONE client connection, %.2gs per cell. The\n\
    \  serialized row is the demux at one slot: one call per roundtrip;\n\
    \  +timeout rows give every call a 1 s deadline.)\n"
    nap_ms duration;
  Record.write out r

(* ================= E12: replica kill/restart sweep ================== *)

(* Three replicas behind one multi-endpoint reference; closed-loop
   clients hammer it while the timeline kills one replica at ~25% and
   restarts it (same endpoint) at ~50%. Throughput and errors are
   bucketed so the artifact shows the dip, the breaker fencing the dead
   endpoint, and the half-open probe readmitting it — the §E12 numbers
   for "Replication and naming" in DESIGN.md. *)
let e12 ?(out = "BENCH_failover.json") ?(duration = 3.0) ?(clients = 8)
    ?(reset_timeout = 0.5) () =
  section "E12" "replicated endpoints: kill/restart under closed-loop load";
  Orb.Transport.mem_reset ();
  let bucket_s = duration /. 30. in
  let kill_at = 0.25 *. duration and restart_at = 0.5 *. duration in
  let n_replicas = 3 in
  let service_s = 0.0005 in
  let served = Array.init n_replicas (fun _ -> Atomic.make 0) in
  let skeleton i =
    Orb.Skeleton.create ~type_id:"IDL:Bench/Replica:1.0"
      [
        ( "work",
          fun _ results ->
            Atomic.incr served.(i);
            Thread.delay service_s;
            results.Wire.Codec.put_long i );
      ]
  in
  let start_replica i ~port =
    let orb = Orb.create ~transport:"mem" ~host:"local" ~port () in
    Orb.start orb;
    let r = Orb.export_named orb ~oid:"replica" (skeleton i) in
    (orb, r)
  in
  let replicas =
    Array.init n_replicas (fun i -> ref (start_replica i ~port:0))
  in
  let target =
    Orb.Objref.make_multi
      ~endpoints:
        (Array.to_list
           (Array.map (fun rep -> Orb.Objref.endpoint (snd !rep)) replicas))
      ~oid:"replica" ~type_id:"IDL:Bench/Replica:1.0"
  in
  let client =
    Orb.create ~transport:"mem" ~host:"local"
      ~retry:{ Orb.Retry.default with max_attempts = 3; base_delay = 0.002 }
      ~breaker:{ Orb.Breaker.failure_threshold = 1; reset_timeout }
      ()
  in
  let n_buckets = int_of_float (ceil (duration /. bucket_s)) in
  let ok_b = Array.init n_buckets (fun _ -> Atomic.make 0) in
  let failed_b = Array.init n_buckets (fun _ -> Atomic.make 0) in
  let t0 = Unix.gettimeofday () in
  let bucket_of now =
    min (n_buckets - 1) (int_of_float ((now -. t0) /. bucket_s))
  in
  let stop = Atomic.make false in
  let lat_mutex = Mutex.create () in
  let lats = ref [] in
  let workers =
    List.init clients (fun _ ->
        Thread.create
          (fun () ->
            let mine = ref [] in
            while not (Atomic.get stop) do
              let t_start = Unix.gettimeofday () in
              let b =
                match Orb.invoke client target ~op:"work" (fun _ -> ()) with
                | Some _ ->
                    let now = Unix.gettimeofday () in
                    mine := (t_start -. t0, now -. t_start) :: !mine;
                    ok_b
                | None | (exception _) -> failed_b
              in
              Atomic.incr b.(bucket_of (Unix.gettimeofday ()))
            done;
            Mutex.protect lat_mutex (fun () -> lats := !mine @ !lats))
          ())
  in
  let sleep_until t =
    let d = t0 +. t -. Unix.gettimeofday () in
    if d > 0. then Thread.delay d
  in
  sleep_until kill_at;
  let victim_orb, victim_ref = !(replicas.(0)) in
  let _, _, victim_port = Orb.Objref.endpoint victim_ref in
  Orb.shutdown ~drain_deadline:0.05 victim_orb;
  sleep_until restart_at;
  replicas.(0) := start_replica 0 ~port:victim_port;
  sleep_until duration;
  Atomic.set stop true;
  List.iter Thread.join workers;
  let st = Orb.stats client in
  Orb.shutdown client;
  Array.iter (fun rep -> Orb.shutdown (fst !rep)) replicas;
  let rate a i = float_of_int (Atomic.get a.(i)) /. bucket_s in
  let kill_bucket = int_of_float (kill_at /. bucket_s) in
  (* Steady state: the pre-kill window, minus the warmup bucket. *)
  let steady_buckets = List.init (max 1 (kill_bucket - 1)) (fun i -> i + 1) in
  let steady =
    List.fold_left (fun acc i -> acc +. rate ok_b i) 0. steady_buckets
    /. float_of_int (List.length steady_buckets)
  in
  (* Recovery: the best bucket fully inside one breaker half-open
     window after the kill. *)
  let window_end =
    min (n_buckets - 1)
      (int_of_float ((kill_at +. reset_timeout) /. bucket_s))
  in
  let recovery_buckets =
    List.filter (fun i -> i > kill_bucket && i <= window_end)
      (List.init n_buckets Fun.id)
  in
  let recovery =
    List.fold_left (fun acc i -> Float.max acc (rate ok_b i)) 0. recovery_buckets
  in
  let ratio = if steady > 0. then recovery /. steady else 0. in
  let failed_total =
    Array.fold_left (fun acc a -> acc + Atomic.get a) 0 failed_b
  in
  let ok_total = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 ok_b in
  (* p95 latency per phase: pre-kill steady state, the outage (kill to
     restart), and after the restarted replica could rejoin. *)
  let p95_ms phase =
    1000.
    *. Record.quantile 0.95
         (List.filter_map (fun (t, d) -> if phase t then Some d else None) !lats)
  in
  let p95_steady = p95_ms (fun t -> t >= bucket_s && t < kill_at) in
  let p95_outage = p95_ms (fun t -> t >= kill_at && t < restart_at) in
  let p95_after =
    p95_ms (fun t -> t >= restart_at +. reset_timeout && t < duration)
  in
  let n = float_of_int in
  let count a = n (Atomic.get a) in
  let r =
    Record.make ~experiment:"E12"
      ~config:
        Record.[ ("transport", Str "mem"); ("duration_s", Num duration);
                 ("bucket_s", Num bucket_s); ("replicas", Num (n n_replicas));
                 ("clients", Num (n clients)); ("kill_at_s", Num kill_at);
                 ("restart_at_s", Num restart_at);
                 ("reset_timeout_s", Num reset_timeout) ]
      (Record.cell [ ("series", "summary") ]
         [ ("steady_ok_per_s", steady); ("recovery_ok_per_s", recovery);
           ("recovery_ratio", ratio); ("ok_total", n ok_total);
           ("failed_total", n failed_total); ("failovers", n st.Orb.failovers);
           ("p95_steady_ms", p95_steady); ("p95_outage_ms", p95_outage);
           ("p95_after_restart_ms", p95_after) ]
      :: List.mapi
           (fun i a ->
             Record.cell [ ("series", "replica"); ("replica", string_of_int i) ]
               [ ("served", count a) ])
           (Array.to_list served)
      @ List.init n_buckets (fun i ->
            Record.cell [ ("series", "bucket"); ("bucket", string_of_int i) ]
              [ ("t_s", n i *. bucket_s); ("ok", count ok_b.(i));
                ("failed", count failed_b.(i)) ]))
  in
  Record.print r;
  Record.write out r

(* Multicore dispatch (DESIGN.md §11 "Domains vs systhreads"): a
   CPU-bound servant — a checksum over an incopy-style string payload —
   behind the worker pool, swept over worker counts with both backends.
   Domain workers execute dispatches on separate cores, so throughput
   should scale with the worker count up to the machine's cores;
   systhread workers share one runtime lock, so their arm stays flat no
   matter how many workers the pool has. The record carries the host's
   core count: gate e13.scales asserts the >= 2.5x 4-domain scaling
   only when the host has >= 4 cores, and the other gates always assert
   structure and call conservation (a 1-core CI box can verify
   correctness but cannot exhibit parallelism). *)
let e13 ?(out = "BENCH_multicore.json") ?(duration = 1.5)
    ?(worker_counts = [ 1; 2; 4 ]) ?(payload_kb = 8) ?(passes = 120) () =
  section "E13" "multicore dispatch: domain workers vs systhread flatline";
  let payload = String.init (payload_kb * 1024) (fun i -> Char.chr (i land 0xff)) in
  (* Adler-ish rolling checksum, [passes] sweeps over the payload: pure
     OCaml arithmetic, no allocation in the loop, deterministic CPU
     demand per call on every backend. *)
  let checksum s =
    let a = ref 1 and b = ref 0 in
    for _ = 1 to passes do
      for i = 0 to String.length s - 1 do
        a := (!a + Char.code (String.unsafe_get s i)) land 0xffffff;
        b := (!b + !a) land 0xffffff
      done
    done;
    (!b lsl 4) lxor !a
  in
  let service_ms =
    let reps = 5 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (checksum payload)
    done;
    (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps
  in
  let checksum_skeleton () =
    Orb.Skeleton.create ~type_id:"IDL:Bench/Checksum:1.0"
      [
        ( "checksum",
          fun args results ->
            results.Wire.Codec.put_long (checksum (args.Wire.Codec.get_string ()))
        );
      ]
  in
  let cores = Domain.recommended_domain_count () in
  let run_cell backend_name backend workers =
    Orb.Transport.mem_reset ();
    let policy =
      {
        Orb.default_server_policy with
        pool =
          Some
            { Orb.Pool.default_config with workers; queue_capacity = 64; backend };
      }
    in
    let server =
      Orb.create ~transport:"mem" ~host:"local" ~server_policy:policy ()
    in
    Orb.start server;
    let target = Orb.export server (checksum_skeleton ()) in
    let ok = Atomic.make 0 and failed = Atomic.make 0 in
    (* Closed loop with more clients than workers: the pool, not the
       offered load, is the bottleneck in every cell. *)
    let n_clients = (2 * workers) + 2 in
    let deadline = Unix.gettimeofday () +. duration in
    let threads =
      List.init n_clients (fun _ ->
          Thread.create
            (fun () ->
              let client =
                Orb.create ~transport:"mem" ~host:"local"
                  ~retry:Orb.Retry.none ()
              in
              while Unix.gettimeofday () < deadline do
                match
                  Orb.invoke client target ~op:"checksum" (fun e ->
                      e.Wire.Codec.put_string payload)
                with
                | Some _ -> Atomic.incr ok
                | None -> Atomic.incr failed
                | exception Orb.System_exception _ ->
                    (* Reject admission under saturation: back off. *)
                    Thread.delay 0.002
                | exception _ -> Atomic.incr failed
              done;
              Orb.shutdown client)
            ())
    in
    List.iter Thread.join threads;
    Orb.shutdown server;
    let n a = float_of_int (Atomic.get a) in
    Record.cell
      [ ("backend", backend_name); ("workers", string_of_int workers);
        ("clients", string_of_int n_clients) ]
      [ ("ok", n ok); ("failed", n failed); ("ok_per_s", n ok /. duration) ]
  in
  let cells =
    List.concat_map
      (fun w -> [ run_cell "domains" Orb.Pool.Domains w ])
      worker_counts
    @ List.concat_map
        (fun w -> [ run_cell "systhreads" Orb.Pool.Systhreads w ])
        worker_counts
  in
  let r =
    Record.make ~experiment:"E13"
      ~config:
        Record.[ ("transport", Str "mem"); ("protocol", Str "heidi-text");
                 ("duration_s", Num duration);
                 ("payload_kb", Num (float_of_int payload_kb));
                 ("service_ms", Num service_ms) ]
      cells
  in
  Record.print r;
  Printf.printf
    "  (service demand per call: %.2f ms of pure-OCaml checksum over a\n\
    \  %d KiB incopy payload; closed-loop clients, %.2gs per cell;\n\
    \  this host reports %d recommended domain(s) — scaling needs >= 4.)\n"
    service_ms payload_kb duration cores;
  Record.write out r

(* ================= E14: deadline propagation under saturation ====== *)

(* An open-loop saturation sweep over one small pool (2 workers x 10 ms
   sleep service = ~200 calls/s capacity). Every call carries the same
   client deadline; the only variable is whether the client propagates
   the remaining budget on the wire. Offered load is paced by a global
   ticket counter (senders sleep until their ticket's fire time), so the
   generator keeps offering at the target rate even while earlier calls
   are stuck in the server's queue — the regime where the two arms
   diverge: without propagation the workers burn their whole service
   time on requests whose caller has already timed out; with it the
   expired backlog is shed at ~no cost and the freed capacity goes to
   requests that can still make their deadline. Goodput = replies that
   arrived within the deadline (the invoke timeout enforces it). *)
let e14 ?(out = "BENCH_deadline.json") ?(duration = 2.0)
    ?(multipliers = [ 1; 2; 4; 8 ]) () =
  section "E14" "end-to-end deadlines: goodput with and without propagation";
  let service_s = 0.010 in
  let deadline_s = 0.030 in
  let workers = 2 in
  let capacity = float_of_int workers /. service_s in
  let senders = 64 in
  let executed = Atomic.make 0 in
  let nap_skeleton () =
    Orb.Skeleton.create ~type_id:"IDL:Bench/Deadline:1.0"
      [
        ( "work",
          fun _ results ->
            Atomic.incr executed;
            Thread.delay service_s;
            results.Wire.Codec.put_string "ok" );
      ]
  in
  let run_cell ~propagate mult =
    Orb.Transport.mem_reset ();
    Atomic.set executed 0;
    let server =
      Orb.create ~transport:"mem" ~host:"local"
        ~server_policy:
          {
            Orb.default_server_policy with
            pool =
              Some
                {
                  Orb.Pool.default_config with
                  workers;
                  queue_capacity = 512;
                  admission = Orb.Pool.Reject;
                };
          }
        ()
    in
    Orb.start server;
    let target = Orb.export server (nap_skeleton ()) in
    let rate = float_of_int mult *. capacity in
    let total = int_of_float (rate *. duration) in
    let ticket = Atomic.make 0 in
    let ok = Atomic.make 0
    and timeout = Atomic.make 0
    and shed = Atomic.make 0
    and failed = Atomic.make 0 in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init senders (fun _ ->
          Thread.create
            (fun () ->
              (* One client ORB (one connection) per sender: calls are
                 serial per connection, so a deadline expiring mid-reply
                 tears down only the timed-out caller's own connection —
                 shared-mux collateral would charge one call's expiry to
                 its innocent neighbours and mask the server-side
                 effect under saturation. *)
              let client =
                Orb.create ~transport:"mem" ~host:"local"
                  ~retry:Orb.Retry.none ~propagate_deadlines:propagate ()
              in
              let rec loop () =
                let i = Atomic.fetch_and_add ticket 1 in
                if i < total then begin
                  let fire_at = t0 +. (float_of_int i /. rate) in
                  let d = fire_at -. Unix.gettimeofday () in
                  if d > 0. then Thread.delay d;
                  (match
                     Orb.invoke client target ~op:"work" ~timeout:deadline_s
                       (fun _ -> ())
                   with
                  | Some _ -> Atomic.incr ok
                  | None -> Atomic.incr failed
                  | exception Orb.Transport.Timeout _ -> Atomic.incr timeout
                  | exception Orb.System_exception _ -> Atomic.incr shed
                  | exception _ -> Atomic.incr failed);
                  loop ()
                end
              in
              loop ();
              Orb.shutdown client)
            ())
    in
    List.iter Thread.join threads;
    let elapsed = Unix.gettimeofday () -. t0 in
    let st = Orb.stats server in
    Orb.shutdown server;
    let n a = float_of_int (Atomic.get a) and i = float_of_int in
    Record.cell
      [ ("propagation", if propagate then "on" else "off");
        ("multiplier", string_of_int mult) ]
      [ ("offered_per_s", rate); ("ok", n ok); ("timeout", n timeout);
        ("shed", n shed); ("failed", n failed); ("goodput_per_s", n ok /. elapsed);
        ("executed", n executed);
        ("expired_pre_admission", i st.Orb.expired_pre_admission);
        ("expired_in_queue", i st.Orb.expired_in_queue);
        ("rejected", i st.Orb.rejected) ]
  in
  let cells =
    List.concat_map
      (fun propagate -> List.map (run_cell ~propagate) multipliers)
      [ true; false ]
  in
  let r =
    Record.make ~experiment:"E14"
      ~config:
        Record.[ ("transport", Str "mem"); ("duration_s", Num duration);
                 ("service_ms", Num (service_s *. 1000.));
                 ("deadline_ms", Num (deadline_s *. 1000.));
                 ("capacity_per_s", Num capacity) ]
      cells
  in
  Record.print r;
  Printf.printf
    "  (open-loop: %d senders paced to load x %.0f calls/s capacity; every\n\
    \  call has a %.0f ms deadline over %.0f ms of sleep service. \"executed\"\n\
    \  counts servant runs — off-arm executions above ok-count are capacity\n\
    \  burned on already-dead requests; the on-arm sheds them in queue.)\n"
    senders capacity (deadline_s *. 1000.) (service_s *. 1000.);
  Record.write out r

(* ---------------- idle CPU: a blocked caller, an idle server ---------------- *)

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One call over tcp whose servant holds it for [hold_s] seconds while
   the caller waits under a [timeout] s deadline. Prints the process CPU
   time spent during the wait: what an idle client pays for a pending
   deadline. *)
let idle_wait ?(hold_s = 10.) ?(timeout = 30.) () =
  section "idle-wait" "CPU of a client blocked in a call with a deadline";
  let server = Orb.create ~transport:"tcp" ~host:"127.0.0.1" () in
  Orb.start server;
  let target =
    Orb.export server
      (Orb.Skeleton.create ~type_id:"IDL:Bench/Hold:1.0"
         [
           ("ping", fun _ results -> results.Wire.Codec.put_bool true);
           ( "hold",
             fun _ results ->
               Thread.delay hold_s;
               results.Wire.Codec.put_bool true );
         ])
  in
  let client = Orb.create ~transport:"tcp" ~host:"127.0.0.1" () in
  ignore (Orb.invoke client target ~op:"ping" (fun _ -> ()));
  let c0 = process_cpu () and w0 = Unix.gettimeofday () in
  ignore (Orb.invoke client target ~op:"hold" ~timeout (fun _ -> ()));
  let c1 = process_cpu () and w1 = Unix.gettimeofday () in
  Orb.shutdown client;
  Orb.shutdown server;
  Printf.printf
    "  blocked %.2f s in one call (deadline %.0f s): process CPU %.1f ms \
     (%.2f%% of one core)\n"
    (w1 -. w0) timeout ((c1 -. c0) *. 1000.)
    (100. *. (c1 -. c0) /. (w1 -. w0))

(* A started tcp server under the default policy that receives no
   call for [hold_s] seconds: the process CPU its parked worker domains
   and listener cost. *)
let idle_server ?(hold_s = 10.) () =
  section "idle-server" "CPU of a started server with no traffic";
  let server = Orb.create ~transport:"tcp" ~host:"127.0.0.1" () in
  Orb.start server;
  let c0 = process_cpu () in
  Thread.delay hold_s;
  let c1 = process_cpu () in
  Orb.shutdown server;
  Printf.printf
    "  %d worker domains idle for %.0f s: process CPU %.1f ms (%.2f%% of \
     one core)\n"
    Orb.Pool.default_config.Orb.Pool.workers hold_s ((c1 -. c0) *. 1000.)
    (100. *. (c1 -. c0) /. hold_s)

(* ================= E15: codec sweep ================================ *)

(* The compact-codec claim (paper Section 5: "for many applications, a
   simple protocol or messaging format may suffice" — and a cheaper one
   pays at every call): the same echo workload under the heidi-text,
   GIOP and HCX envelopes, swept across payload sizes. Bytes are read
   from the Obs channel meter, so the figure is what actually crossed
   the transport, framing included. Calls/s is a monotonic-clock loop
   (see E3b on OLS and thread wakeups). Writes BENCH_codec.json; gate
   e15.hcx_below_text pins HCX's bytes/call strictly below heidi-text's
   at every payload size. *)
let e15 ?(out = "BENCH_codec.json") ?(measure_s = 0.4)
    ?(sizes = [ 16; 256; 4096; 65536 ]) () =
  section "E15" "codec sweep: bytes/call and calls/s (hcx vs text vs giop, mem)";
  let protos =
    [
      ("heidi-text", Orb.Protocol.text);
      ("giop-be", Giop.protocol ());
      ("hcx", Orb.Protocol.hcx);
    ]
  in
  let blob_skeleton () =
    Orb.Skeleton.create ~type_id:"IDL:Bench/Blob:1.0"
      [
        ("swallow", fun args results ->
            let s = args.Wire.Codec.get_string () in
            results.Wire.Codec.put_long (String.length s));
      ]
  in
  let run_row (pname, protocol) size =
    Orb.Transport.mem_reset ();
    let server = Orb.create ~protocol ~transport:"mem" ~host:"local" () in
    Orb.start server;
    let target = Orb.export server (blob_skeleton ()) in
    let obs = Obs.create () in
    let client = Orb.create ~protocol ~transport:"mem" ~host:"local" ~obs () in
    let blob = String.make size 'a' in
    let call () =
      ignore
        (Orb.invoke client target ~op:"swallow" (fun e ->
             e.Wire.Codec.put_string blob))
    in
    for _ = 1 to 20 do call () done;
    (* bytes/call: meter delta over a fixed batch. Plain endpoint labels
       only — the per-codec twins double-account the same bytes. *)
    let wire_bytes () =
      List.fold_left
        (fun acc e ->
          if String.starts_with ~prefix:"mem:" e.Obs.Metrics.endpoint then
            acc + e.Obs.Metrics.bytes_in + e.Obs.Metrics.bytes_out
          else acc)
        0
        (Obs.snapshot obs).Obs.metrics.Obs.Metrics.endpoints
    in
    let before = wire_bytes () in
    let batch = 50 in
    for _ = 1 to batch do call () done;
    let bytes_per_call =
      float_of_int (wire_bytes () - before) /. float_of_int batch
    in
    let t0 = Unix.gettimeofday () in
    let n = ref 0 in
    while Unix.gettimeofday () -. t0 < measure_s do
      call ();
      incr n
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    let ns_per_call = elapsed *. 1e9 /. float_of_int !n in
    let calls_per_s = float_of_int !n /. elapsed in
    Orb.shutdown client;
    Orb.shutdown server;
    Record.cell
      [ ("protocol", pname); ("payload_bytes", string_of_int size) ]
      [ ("bytes_per_call", bytes_per_call); ("ns_per_call", ns_per_call);
        ("calls_per_s", calls_per_s) ]
  in
  let r =
    Record.make ~experiment:"E15"
      ~config:Record.[ ("transport", Str "mem"); ("measure_s", Num measure_s) ]
      (List.concat_map (fun proto -> List.map (run_row proto) sizes) protos)
  in
  Record.print r;
  Printf.printf
    "  (bytes/call from the Obs channel meter over %d metered calls per\n\
    \  row: request + reply, envelope + payload + framing. HCX varints\n\
    \  and byte-count framing vs text tokens vs GIOP's 12-byte header\n\
    \  and CDR padding.)\n"
    50;
  Record.write out r

(* ================= F-series: figure regeneration pointers ========== *)

let figures () =
  section "F3/F8/F9/F10" "figure regeneration (golden-tested elsewhere)";
  print_endline
    "  Fig. 3 header     : dune exec examples/quickstart.exe   (test: codegen-heidi)";
  print_endline
    "  Fig. 8 EST dump   : dune exec bin/idlc.exe -- examples/idl/A.idl --dump-est";
  print_endline
    "  Fig. 9 template   : lib/mappings/heidi_cpp.ml header template (test: template)";
  print_endline
    "  Fig. 10 tcl code  : dune exec bin/idlc.exe -- examples/idl/Receiver.idl -m tcl";
  print_endline
    "  Figs. 4-5 flow    : test/test_orb.ml interaction trace; examples/heidi_media.exe"

(* The experiments that write a bench record: [FLAG OUT] runs the full
   measurement, [FLAG-smoke OUT] the small quota `dune build @bench-smoke`
   checks — small enough for a test run, large enough for the gates. *)
type experiment = { flag : string; full : string -> unit; smoke : string -> unit }

let experiments =
  [
    { flag = "--e9"; full = (fun out -> e9 ~out ());
      smoke = (fun out -> e9 ~out ~calls:40 ~repeats:3 ()) };
    { flag = "--e10"; full = (fun out -> e10 ~out ());
      smoke = (fun out -> e10 ~out ~duration:0.25 ~client_counts:[ 2; 6 ] ()) };
    (* Both codecs x both client modes at 1 and 8 threads: the 2x gate. *)
    { flag = "--e11"; full = (fun out -> e11 ~out ());
      smoke = (fun out -> e11 ~out ~duration:0.5 ~thread_counts:[ 1; 8 ] ()) };
    (* The full timeline with half the clients. Its recovery window is
       five 0.1 s buckets, so a few tenths of a second of host
       contention cannot empty it, as it emptied a 1 s smoke's 0.2 s
       window. *)
    { flag = "--e12"; full = (fun out -> e12 ~out ());
      smoke = (fun out -> e12 ~out ~duration:3.0 ~clients:4 ~reset_timeout:0.5 ()) };
    { flag = "--e13"; full = (fun out -> e13 ~out ());
      smoke =
        (fun out ->
          e13 ~out ~duration:0.2 ~worker_counts:[ 1; 4 ] ~payload_kb:2 ~passes:30 ()) };
    (* Unsaturated (1x) and deep saturation (4x). *)
    { flag = "--e14"; full = (fun out -> e14 ~out ());
      smoke = (fun out -> e14 ~out ~duration:0.4 ~multipliers:[ 1; 4 ] ()) };
    (* Bytes/call are exact at any quota. *)
    { flag = "--e15"; full = (fun out -> e15 ~out ());
      smoke = (fun out -> e15 ~out ~measure_s:0.05 ~sizes:[ 16; 4096 ] ()) };
  ]

let () =
  let runs =
    List.concat_map
      (fun e -> [ (e.flag, e.full); (e.flag ^ "-smoke", e.smoke) ])
      experiments
  in
  match Sys.argv with
  | [| _; flag; out |] when List.mem_assoc flag runs -> (List.assoc flag runs) out
  | [| _; "--idle-wait" |] ->
      (* Process CPU while one client call waits 10 s under a 30 s
         deadline (EXPERIMENTS.md, E14 notes). *)
      idle_wait ()
  | [| _; "--idle-server" |] ->
      (* Process CPU of a started server with no traffic for 10 s
         (EXPERIMENTS.md, E13 notes). *)
      idle_server ()
  | _ ->
      print_endline "Reproduction benches: Customizing IDL Mappings and ORB Protocols";
      print_endline "(Welling & Ott, Middleware 2000) -- see EXPERIMENTS.md for analysis";
      t1 ();
      t2 ();
      e1 ();
      e2 ();
      e3 ();
      e4 ();
      e5 ();
      e6 ();
      e7 ();
      e8 ();
      e3b ();
      e9 ();
      e10 ();
      e11 ();
      e12 ();
      e13 ();
      e14 ();
      e15 ();
      figures ();
      print_endline "\nAll benches complete."
