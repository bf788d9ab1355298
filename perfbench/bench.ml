(* The repository benchmark. See README.md.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints the host and run configuration, every metric with its unit,
   and as the last line one JSON object. Exits 1 when a reply, a
   compile output or a run invariant is wrong. *)

open Measure

let usage = "bench.exe --workload heidi_control|heidi_bulk|idl_compile --seed N --seconds S --trace 0|1"

let host () =
  [
    ("nproc", string_of_int (nproc ()));
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml_version", Sys.ocaml_version);
  ]

let print_report ~workload ~seed ~seconds ~trace r =
  let config =
    host ()
    @ [
        ("workload", workload);
        ("seed", string_of_int seed);
        ("seconds", Printf.sprintf "%g" seconds);
        ("traced", string_of_bool trace);
      ]
    @ r.config
  in
  List.iter (fun (k, v) -> Printf.printf "config %-26s %s\n" k v) config;
  List.iter (fun x -> Printf.printf "metric %-34s %.6g %s\n" x.name x.value x.unit_) r.metrics;
  Printf.printf "metric %-34s %.6g ratio\n" "error_ratio"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  let problems =
    r.problems
    @ List.filter_map
        (fun x -> if Float.is_finite x.value then None else Some (x.name ^ " is not finite"))
        r.metrics
  in
  List.iter (Printf.printf "FAILED %s\n") problems;
  let correct = problems = [] && r.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.name
              (if Float.is_finite x.value then x.value else 0.)
              x.unit_)
          r.metrics));
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let kind =
    match !workload with
    | "heidi_control" -> Some Rpc.Control
    | "heidi_bulk" -> Some Rpc.Bulk
    | "idl_compile" -> None
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let report =
    match (kind, trace) with
    | Some kind, false -> Rpc.run ~kind ~seed ~seconds
    | None, false -> Compile.run ~seed ~seconds ~trace
    | Some kind, true ->
        (* Compile stages never run on an RPC workload; a few traced
           passes over the same seed's corpus fill those metrics. *)
        let r = Rpc.layers ~kind ~seed ~seconds in
        let stages, problems = Compile.stage_probe ~seed ~passes:3 in
        {
          r with
          metrics = r.metrics @ stages;
          config = r.config @ [ ("compile_stage_probe", "3 traced passes") ];
          problems = r.problems @ problems;
        }
    | None, true ->
        (* The RPC layers never run on idl_compile; a short heidi_control
           probe fills those metrics. *)
        let r = Compile.run ~seed ~seconds ~trace in
        let probe = Rpc.layers ~kind:Rpc.Control ~seed ~seconds:2. in
        let own = List.map (fun x -> x.name) r.metrics in
        {
          r with
          metrics = r.metrics @ List.filter (fun x -> not (List.mem x.name own)) probe.metrics;
          config = r.config @ [ ("rpc_layer_probe", "heidi_control, 2 s traced") ];
          problems = r.problems @ probe.problems;
        }
  in
  if not (print_report ~workload:!workload ~seed ~seconds ~trace report) then exit 1
