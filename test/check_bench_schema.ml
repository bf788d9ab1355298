(* Checks a bench artifact (any BENCH_*.json of E9-E15) against its
   experiment's declaration in bench/gates.ml: the record validator's
   rules, then every gate. Run from the [bench-smoke] alias on each smoke
   artifact; exits 1 listing every rule and gate that failed. *)

let () =
  let path = Sys.argv.(1) in
  let failures, summary =
    match Record.read path with
    | exception Record.Bad m -> ([ m ], "")
    | r -> (
        match Gates.find r.Record.experiment with
        | None -> ([ Printf.sprintf "unknown experiment %S" r.Record.experiment ], "")
        | Some spec ->
            ( Record.failures spec r,
              Printf.sprintf "%s, %d cells, %d gates" r.Record.experiment
                (List.length r.Record.cells) (List.length spec.Record.s_gates) ))
  in
  if failures = [] then Printf.printf "%s: OK (%s)\n" path summary
  else begin
    List.iter (Printf.eprintf "%s: FAILED: %s\n" path) failures;
    exit 1
  end
