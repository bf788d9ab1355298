(* The idl_compile workload: one thread compiles the three example IDL
   files and one seeded synthetic spec under all five mappings. One op
   is one such full pass (20 compiles). *)

open Measure

let example_files =
  [ "examples/idl/A.idl"; "examples/idl/Receiver.idl"; "examples/idl/heidi.idl" ]

let golden_file = "examples/gen/heidi_rmi.ml"

(* About 1,100 lines. A pass then takes about 0.2 s on a 2-core host,
   which leaves enough passes in a run to support the p90 that
   idl_compile reports. *)
let synthetic_modules = 16

type input = { filename : string; src : string; synthetic : bool }
type corpus = { inputs : input list; golden : string }

let load ~seed =
  let examples =
    List.map (fun f -> { filename = f; src = read_file f; synthetic = false }) example_files
  in
  let spec = Synth.generate ~seed ~modules:synthetic_modules in
  {
    inputs = examples @ [ { filename = "synthetic.idl"; src = spec; synthetic = true } ];
    golden = read_file golden_file;
  }

let mappings = Mappings.Registry.all

let out_bytes (r : Core.Compiler.result) =
  List.fold_left (fun a (_, c) -> a + String.length c) (String.length r.stdout) r.files

(* IDL read plus code generated, over every compile of a pass. *)
let pass_bytes corpus results =
  let src = List.fold_left (fun a i -> a + String.length i.src) 0 corpus.inputs in
  (src * List.length mappings) + List.fold_left (fun a r -> a + out_bytes r) 0 results

(* One untraced pass, input-major and mapping-minor. *)
let pass corpus =
  List.concat_map
    (fun i ->
      List.map
        (fun mapping -> Core.Compiler.compile_string ~filename:i.filename ~mapping i.src)
        mappings)
    corpus.inputs

(* The ocaml output for heidi.idl must be the checked-in stubs that the
   RPC workloads run, and every pass must reproduce the first one byte
   for byte. *)
let check corpus ~reference results =
  let index p l = Option.get (List.find_index p l) in
  let heidi_ocaml =
    (index (fun i -> Filename.basename i.filename = "heidi.idl") corpus.inputs * List.length mappings)
    + index (fun (m : Mappings.Mapping.t) -> m.name = "ocaml") mappings
  in
  List.assoc_opt "heidi_rmi.ml" (List.nth results heidi_ocaml).Core.Compiler.files
  = Some corpus.golden
  && (match reference with Some r -> r = results | None -> true)

(* {1 Traced pass}

   The same compiles, split into the layer calls [Core.Compiler] makes:
   [Idl.Parser] -> [Est.Resolve] -> [Est.Build], then per template
   [Template.Parse] and [Template.Eval], merged as the compiler merges.
   Per-pass stage times are kept per input set (the example files and
   the synthetic spec) in these slots: *)

let n_maps = List.length mappings
let slot_parse = 0
let slot_resolve = 1
let slot_build = 2
let slot_tparse = 3
let slot_eval k = 4 + k
let slot_out = 4 + n_maps
let n_slots = 5 + n_maps

let merge outputs : Core.Compiler.result =
  let stdout = String.concat "" (List.map (fun o -> o.Template.Eval.stdout) outputs) in
  let files = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun o ->
      List.iter
        (fun (name, content) ->
          match Hashtbl.find_opt files name with
          | Some prev -> Hashtbl.replace files name (prev ^ content)
          | None ->
              Hashtbl.replace files name content;
              order := name :: !order)
        o.Template.Eval.files)
    outputs;
  { files = List.rev_map (fun n -> (n, Hashtbl.find files n)) !order; stdout }

(* Returns the results and a [2 * n_slots] array: examples, then synthetic. *)
let staged corpus =
  let acc = Array.make (2 * n_slots) 0. in
  let results =
    List.concat_map
      (fun i ->
        let base = if i.synthetic then n_slots else 0 in
        let time slot f =
          let t0 = now () in
          let r = f () in
          acc.(base + slot) <- acc.(base + slot) +. (now () -. t0);
          r
        in
        List.mapi
          (fun k (mapping : Mappings.Mapping.t) ->
            let ast = time slot_parse (fun () -> Idl.Parser.parse_string ~filename:i.filename i.src) in
            let sem = time slot_resolve (fun () -> Est.Resolve.spec ast) in
            let root = time slot_build (fun () -> Est.Build.of_spec sem) in
            let file_base =
              let b = Filename.basename i.filename in
              Option.value ~default:b (Filename.chop_suffix_opt ~suffix:".idl" b)
            in
            Est.Node.add_prop root "fileBase" file_base;
            Est.Node.add_prop root "fileName" i.filename;
            let r =
              merge
                (List.map
                   (fun (name, src) ->
                     let t = time slot_tparse (fun () -> Template.Parse.parse ~name src) in
                     time (slot_eval k) (fun () -> Template.Eval.run ~maps:mapping.maps t root))
                   mapping.templates)
            in
            acc.(base + slot_out) <- acc.(base + slot_out) +. float_of_int (out_bytes r);
            r)
          mappings)
      corpus.inputs
  in
  (results, acc)

let stage_metrics passes =
  let med slot = median (List.map (fun a -> a.(slot)) passes) in
  List.concat_map
    (fun (set, base) ->
      let ms name slot = m (Printf.sprintf "%s.%s" name set) "ms" (med (base + slot) *. 1e3) in
      [
        ms "idl.parse_ms" slot_parse;
        ms "est.resolve_ms" slot_resolve;
        ms "est.build_ms" slot_build;
        ms "template.parse_ms" slot_tparse;
      ]
      @ List.mapi
          (fun k (mp : Mappings.Mapping.t) ->
            ms (Printf.sprintf "template.eval_ms.%s" mp.name) (slot_eval k))
          mappings
      @ [ m ("template.output_kb." ^ set) "kB" (med (base + slot_out) /. 1024.) ])
    [ ("examples", 0); ("synthetic", n_slots) ]

(* Compile-stage metrics from a few traced passes, for the traced runs of
   workloads that do not compile. *)
let stage_probe ~seed ~passes =
  let corpus = load ~seed in
  let reference = pass corpus in
  let ok = ref (check corpus ~reference:None reference) in
  let accs =
    List.init passes (fun _ ->
        let results, acc = staged corpus in
        ok := !ok && results = reference;
        acc)
  in
  (stage_metrics accs, if !ok then [] else [ "compile probe: staged output differs" ])

(* {1 The workload} *)

(* Set-ups are timed at the start and again at every window boundary,
   so their median samples the whole run rather than its first moment. *)
let setups_per_window = 3

let timed_load ~seed =
  let t0 = now () in
  let c = load ~seed in
  (now () -. t0, c)

let config corpus =
  [
    ("inputs", String.concat " " (List.map (fun i -> i.filename) corpus.inputs));
    ( "synthetic_lines",
      string_of_int
        (List.length (String.split_on_char '\n' (List.nth corpus.inputs 3).src)) );
    ("mappings", String.concat " " (List.map (fun m -> m.Mappings.Mapping.name) mappings));
    ("callers", "1 thread");
  ]

let run ~seed ~seconds ~trace =
  let t, corpus = timed_load ~seed in
  let setup_times = ref [ t ] in
  (* The first pass warms up and is the reference every later pass must
     reproduce. *)
  let reference = pass corpus in
  let problems = ref [] in
  if not (check corpus ~reference:None reference) then
    problems := "ocaml output for heidi.idl differs from examples/gen/heidi_rmi.ml" :: !problems;
  let lat = samples () and traced_lat = samples () in
  let attempted = ref 0 and failed = ref 0 in
  let stage_accs = ref [] in
  let minor = ref 0 and major = ref 0 in
  let ticks = cpu_ticks () in
  let t0 = now () in
  let deadline = t0 +. seconds in
  (* Windows close at the first pass end past each boundary. *)
  let ws = ref [] and w_start = ref (t0, cpu_s (), 0, 0) and bytes = ref 0 in
  let close_window () =
    let t, c, n, b = !w_start and t' = now () and c' = cpu_s () in
    let w_lat = Array.sub lat.a n (lat.n - n) in
    Array.sort compare w_lat;
    ws := { dt = t' -. t; ops = lat.n - n; cpu = c' -. c; bytes = !bytes - b; lat = w_lat } :: !ws;
    for _ = 1 to setups_per_window do
      let t, c = timed_load ~seed in
      setup_times := t :: !setup_times;
      if c <> corpus then problems := "set-up generated a different corpus" :: !problems
    done;
    w_start := (now (), cpu_s (), lat.n, !bytes)
  in
  while now () < deadline do
    incr attempted;
    let g0 = Gc.quick_stat () in
    let a = now () in
    let results = pass corpus in
    let d = now () -. a in
    let g1 = Gc.quick_stat () in
    minor := !minor + g1.minor_collections - g0.minor_collections;
    major := !major + g1.major_collections - g0.major_collections;
    if check corpus ~reference:(Some reference) results then begin
      add lat d;
      bytes := !bytes + pass_bytes corpus results
    end
    else incr failed;
    if trace then begin
      let a = now () in
      let results, acc = staged corpus in
      add traced_lat (now () -. a);
      stage_accs := acc :: !stage_accs;
      if results <> reference then problems := "traced pass output differs" :: !problems
    end;
    let t, _, _, _ = !w_start in
    if now () -. t >= seconds /. float_of_int windows || now () >= deadline then close_window ()
  done;
  let steal = steal_pct ticks in
  if !failed > 0 then
    problems := Printf.sprintf "%d passes produced wrong output" !failed :: !problems;
  let a = sorted [ lat ] in
  let ok = Array.length a in
  (* A window holds about twenty passes, so its p90 and p99 lie near its
     slowest passes. Taken over the whole run instead, the p99 would rest
     on the one or two slowest passes of the run. *)
  let metrics =
    if not trace then end_to_end ~setup:(median !setup_times) ~q:(window_quantile !ws) !ws
    else begin
      let p50_off = quantile a 0.5 and p50_on = quantile (sorted [ traced_lat ]) 0.5 in
      let per_kop n = float_of_int n /. float_of_int !attempted *. 1000. in
      stage_metrics !stage_accs
      @ [
          m "gc.minor_per_kop" "count" (per_kop !minor);
          m "gc.major_per_kop" "count" (per_kop !major);
          m "obs.overhead_pct" "%" ((p50_on -. p50_off) /. p50_off *. 100.);
        ]
    end
  in
  let config =
    config corpus
    @ [
        ("passes", string_of_int ok);
        ("windows", string_of_int (List.length !ws));
        ("host_steal", steal ^ " of host CPU time during the measured stretch");
        ("p90_samples_beyond", string_of_int (beyond a 0.9));
      ]
  in
  { attempted = !attempted; failed = !failed; metrics; config; problems = List.rev !problems }
