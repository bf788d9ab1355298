(* idlc: the template-driven IDL compiler CLI (paper Fig. 6).

   The default (subcommand-free) invocation compiles one IDL file through
   one mapping (or a custom template), or dumps intermediate
   representations:

     idlc A.idl --mapping heidi-cpp -o out/
     idlc A.idl --template my.tmpl -o out/
     idlc A.idl --dump-est          # Fig. 8-style Perl rendering
     idlc A.idl --dump-est-text     # machine-readable EST
     idlc A.idl --reformat          # pretty-print the parsed IDL
     idlc --list-mappings

   Interface Repository (Section 5's OmniBroker integration):

     idlc A.idl --ir /tmp/ir                   # parse and store the EST
     idlc --ir /tmp/ir --ir-list               # what is stored
     idlc --ir /tmp/ir --from-ir A -m tcl      # generate without reparsing

   Static analysis (the `lint` subcommand) checks .idl and .tmpl files
   without generating code, with error recovery so one run reports every
   independent problem:

     idlc lint A.idl B.tmpl
     idlc lint A.idl --against /tmp/ir         # interface-evolution diff
     idlc lint --explain E010

   Exit codes (all commands): 0 success, 1 diagnostics were produced
   (compile error, or lint errors / --werror'd warnings), 2 command-line
   usage error. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let print_warning d = Printf.eprintf "%s\n" (Idl.Diag.to_string d)

(* ---------------- compile (the default command) ---------------- *)

let list_mappings () =
  List.iter
    (fun (m : Mappings.Mapping.t) ->
      Printf.printf "%-12s %-6s %s\n" m.Mappings.Mapping.name
        m.Mappings.Mapping.language m.Mappings.Mapping.description;
      List.iter
        (fun t -> Printf.printf "%14s- template %S\n" "" t)
        (Mappings.Mapping.template_names m))
    Mappings.Registry.all

type dump = Dump_none | Dump_perl | Dump_text | Dump_reformat

let ir_list dir =
  let repo = Core.Repository.open_ ~dir in
  List.iter
    (fun unit_name ->
      Printf.printf "%s\n" unit_name;
      match Core.Repository.load repo unit_name with
      | None -> ()
      | Some est ->
          List.iter
            (fun iface ->
              Printf.printf "  %s\n"
                (Est.Node.prop_or iface "repoId" ~default:"<no id>"))
            (Est.Node.group est "interfaceList"))
    (Core.Repository.units repo)

let run input mapping_name template_file out_dir dump list_flag ir_dir ir_list_flag
    from_ir werror =
  (* Resolver warnings go to stderr in every compile mode; --werror makes
     any warning fatal (after the run completes). *)
  let warned = ref 0 in
  let warn d =
    incr warned;
    print_warning
      (if werror then { d with Idl.Diag.severity = Idl.Diag.Error } else d)
  in
  let finish code =
    if werror && !warned > 0 && code = 0 then `Ok 1 else `Ok code
  in
  try
    if list_flag then (
      list_mappings ();
      `Ok 0)
    else if ir_list_flag then (
      match ir_dir with
      | Some dir ->
          ir_list dir;
          `Ok 0
      | None -> `Error (true, "--ir-list requires --ir DIR"))
    else
      let est_source () =
        (* The EST comes from the IR (no IDL parsing at all) or from a
           source file; either way stage 2 is identical (Fig. 6). *)
        match (from_ir, ir_dir, input) with
        | Some unit_name, Some dir, _ -> (
            let repo = Core.Repository.open_ ~dir in
            match Core.Repository.load repo unit_name with
            | Some est -> est
            | None ->
                failwith (Printf.sprintf "unit %S is not in the repository" unit_name))
        | Some _, None, _ -> failwith "--from-ir requires --ir DIR"
        | None, _, Some path ->
            let est = Core.Compiler.est_of_file ~warn path in
            (match ir_dir with
            | Some dir ->
                let repo = Core.Repository.open_ ~dir in
                let unit_name = Core.Repository.store repo est in
                Printf.eprintf "stored unit %S in %s\n" unit_name dir
            | None -> ());
            est
        | None, _, None -> failwith "an input .idl file (or --from-ir) is required"
      in
      match input with
      | None when from_ir = None -> `Error (true, "an input .idl file is required")
      | _ -> (
          match dump with
          | Dump_reformat ->
              (match input with
              | Some path ->
                  print_string (Idl.Pretty.to_string (Idl.Parser.parse_file path))
              | None -> failwith "--reformat requires an input file");
              finish 0
          | Dump_perl ->
              print_string (Est.Dump.to_perl (est_source ()));
              finish 0
          | Dump_text ->
              print_string (Est.Dump.to_text (est_source ()));
              finish 0
          | Dump_none -> (
              let result =
                match template_file with
                | Some tf ->
                    let root = est_source () in
                    Core.Compiler.generate ~maps:(Mappings.Registry.all_maps ())
                      ~templates:[ (tf, read_file tf) ]
                      root
                | None -> (
                    match Mappings.Registry.find mapping_name with
                    | None ->
                        failwith
                          (Printf.sprintf
                             "unknown mapping %S (try --list-mappings)"
                             mapping_name)
                    | Some mapping ->
                        Core.Compiler.generate
                          ~maps:mapping.Mappings.Mapping.maps
                          ~templates:mapping.Mappings.Mapping.templates
                          (est_source ()))
              in
              if result.Core.Compiler.stdout <> "" then
                print_string result.Core.Compiler.stdout;
              match out_dir with
              | Some dir ->
                  let written = Core.Compiler.write_result ~dir result in
                  List.iter (Printf.printf "wrote %s\n") written;
                  finish 0
              | None ->
                  List.iter
                    (fun (name, content) ->
                      Printf.printf "===== %s =====\n%s" name content)
                    result.Core.Compiler.files;
                  finish 0))
  with
  | Idl.Diag.Idl_error d ->
      Format.eprintf "%a@." Idl.Diag.pp d;
      `Ok 1
  | Template.Parse.Template_error _ as e ->
      Printf.eprintf "%s\n" (Printexc.to_string e);
      `Ok 1
  | Template.Eval.Eval_error _ as e ->
      Printf.eprintf "%s\n" (Printexc.to_string e);
      `Ok 1
  | Failure m ->
      Printf.eprintf "idlc: %s\n" m;
      `Ok 1
  | Sys_error m ->
      Printf.eprintf "idlc: %s\n" m;
      `Ok 1

let input_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.idl" ~doc:"IDL source file.")

let mapping_arg =
  Arg.(
    value
    & opt string "heidi-cpp"
    & info [ "m"; "mapping" ] ~docv:"NAME"
        ~doc:"Built-in mapping to generate with (see $(b,--list-mappings)).")

let template_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "t"; "template" ] ~docv:"FILE.tmpl"
        ~doc:"Generate with a custom template instead of a built-in mapping.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"DIR"
        ~doc:"Write generated files under $(docv) instead of stdout.")

let dump_arg =
  let flags =
    [
      (Dump_perl, Arg.info [ "dump-est" ] ~doc:"Print the Fig. 8-style Perl rendering of the EST and exit.");
      (Dump_text, Arg.info [ "dump-est-text" ] ~doc:"Print the machine-readable EST and exit.");
      (Dump_reformat, Arg.info [ "reformat" ] ~doc:"Pretty-print the parsed IDL and exit.");
    ]
  in
  Arg.(value & vflag Dump_none flags)

let list_arg =
  Arg.(value & flag & info [ "list-mappings" ] ~doc:"List built-in mappings and exit.")

let ir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ir" ] ~docv:"DIR"
        ~doc:
          "Interface Repository directory. With an input file, store its \
           EST there after parsing; combine with $(b,--from-ir) or \
           $(b,--ir-list) to generate or inspect without reparsing.")

let ir_list_arg =
  Arg.(
    value & flag
    & info [ "ir-list" ] ~doc:"List the units and interfaces stored in the IR.")

let from_ir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from-ir" ] ~docv:"UNIT"
        ~doc:"Generate from a unit stored in the IR instead of parsing IDL.")

let werror_arg =
  Arg.(
    value & flag
    & info [ "werror" ]
        ~doc:"Treat warnings as errors: any warning makes the exit status 1.")

(* ---------------- lint ---------------- *)

let lint_run files against_dir mapping_names json werror enables disables
    explain =
  match explain with
  | Some "" ->
      print_string (Analysis.Codes.table ());
      print_newline ();
      `Ok 0
  | Some code -> (
      match Analysis.Codes.explain code with
      | Some text ->
          print_string text;
          `Ok 0
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown diagnostic code %S (try --explain with \
                              no argument for the list)"
                code ))
  | None -> (
      match
        List.find_opt
          (fun c -> not (Analysis.Codes.is_known c))
          (enables @ disables)
      with
      | Some c ->
          `Error (false, Printf.sprintf "unknown diagnostic code %S" c)
      | None -> (
          let mappings =
            match mapping_names with
            | [] -> Ok Mappings.Registry.all
            | names -> (
                match
                  List.find_opt
                    (fun n -> Mappings.Registry.find n = None)
                    names
                with
                | Some n ->
                    Error
                      (Printf.sprintf "unknown mapping %S (try --list-mappings)"
                         n)
                | None ->
                    Ok (List.filter_map Mappings.Registry.find names))
          in
          match mappings with
          | Error m -> `Error (false, m)
          | Ok _ when files = [] ->
              `Error (true, "no input files (expected .idl and/or .tmpl)")
          | Ok mappings -> (
              let reporter = Idl.Diag.reporter ~werror () in
              List.iter
                (fun c -> Idl.Diag.set_enabled reporter c false)
                disables;
              List.iter (fun c -> Idl.Diag.set_enabled reporter c true) enables;
              let lint_one path =
                if Filename.check_suffix path ".tmpl" then
                  ignore (Analysis.Tmpl_check.check_file reporter path)
                else
                  match Analysis.Lint.run_file ~mappings reporter path with
                  | None -> () (* syntax error: already reported *)
                  | Some spec -> (
                      match against_dir with
                      | None -> ()
                      | Some ir_dir ->
                          let root = Est.Build.of_spec spec in
                          Est.Node.add_prop root "fileBase"
                            (Filename.remove_extension (Filename.basename path));
                          Est.Node.add_prop root "fileName" path;
                          if
                            not
                              (Analysis.Evolve.against reporter ~ir_dir
                                 ~file:path root)
                          then
                            Printf.eprintf
                              "idlc lint: note: no snapshot for %S in %s \
                               (nothing to compare)\n"
                              path ir_dir)
              in
              try
                List.iter lint_one files;
                if json then print_string (Idl.Diag.render_json reporter)
                else (
                  let text = Idl.Diag.render_text reporter in
                  if text <> "" then prerr_string text;
                  let e = Idl.Diag.error_count reporter
                  and w = Idl.Diag.warning_count reporter in
                  if e > 0 || w > 0 then
                    Printf.eprintf "%d error%s, %d warning%s\n" e
                      (if e = 1 then "" else "s")
                      w
                      (if w = 1 then "" else "s"));
                `Ok (if Idl.Diag.has_errors reporter then 1 else 0)
              with Sys_error m ->
                Printf.eprintf "idlc: %s\n" m;
                `Ok 1)))

let lint_files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Files to check: $(b,.tmpl) files go through the template \
           checker, everything else through the IDL front end and lint \
           passes.")

let against_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "against" ] ~docv:"IR-DIR"
        ~doc:
          "Diff each IDL file's interfaces against the snapshot stored in \
           this Interface Repository directory; wire-breaking changes are \
           errors (V301-V304), additions are W310 warnings.")

let lint_mapping_arg =
  Arg.(
    value & opt_all string []
    & info [ "m"; "mapping" ] ~docv:"NAME"
        ~doc:
          "Check identifiers against this mapping's reserved words (W105); \
           repeatable. Default: every built-in mapping.")

let json_arg =
  Arg.(
    value & flag
    & info [ "lint-json" ]
        ~doc:"Print diagnostics as a JSON array on stdout instead of text.")

let enable_arg =
  Arg.(
    value & opt_all string []
    & info [ "enable" ] ~docv:"CODE"
        ~doc:"Re-enable a warning code disabled by $(b,--disable).")

let disable_arg =
  Arg.(
    value & opt_all string []
    & info [ "disable" ] ~docv:"CODE"
        ~doc:"Suppress a warning code (errors cannot be disabled).")

let explain_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "explain" ] ~docv:"CODE"
        ~doc:
          "Explain a diagnostic code and exit; with no $(docv), list every \
           code.")

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "on diagnostics: a compile-time error, lint errors, or warnings \
         under $(b,--werror).";
    Cmd.Exit.info 2 ~doc:"on command-line usage errors.";
  ]

let lint_cmd =
  let doc = "statically check IDL files, templates, and interface evolution" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the IDL front end with error recovery (reporting every \
         independent problem in one pass) plus lint passes over the \
         resolved spec; checks templates against the EST schema without \
         evaluating them; and, with $(b,--against), diffs interfaces \
         against an Interface Repository snapshot, classifying changes as \
         wire-breaking or benign.";
      `P
        "Diagnostic codes are stable: E0xx front-end errors, W1xx lint \
         warnings, T2xx template findings, V3xx evolution findings. Use \
         $(b,--explain) $(i,CODE) for the rationale behind any code.";
    ]
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man ~exits)
    Term.(
      ret
        (const lint_run $ lint_files_arg $ against_arg $ lint_mapping_arg
       $ json_arg $ werror_arg $ enable_arg $ disable_arg $ explain_arg))

(* ---------------- analyze-conc ---------------- *)

let conc_run paths json werror enables disables explain =
  match explain with
  | Some "" ->
      print_string (Analysis.Codes.table ());
      print_newline ();
      `Ok 0
  | Some code -> (
      match Analysis.Codes.explain code with
      | Some text ->
          print_string text;
          `Ok 0
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown diagnostic code %S (try --explain with \
                              no argument for the list)"
                code ))
  | None -> (
      match
        List.find_opt
          (fun c -> not (Analysis.Codes.is_known c))
          (enables @ disables)
      with
      | Some c -> `Error (false, Printf.sprintf "unknown diagnostic code %S" c)
      | None when paths = [] ->
          `Error (true, "no input paths (expected .ml files or directories)")
      | None -> (
          let reporter = Idl.Diag.reporter ~werror () in
          List.iter (fun c -> Idl.Diag.set_enabled reporter c false) disables;
          List.iter (fun c -> Idl.Diag.set_enabled reporter c true) enables;
          try
            List.iter (Analysis.Conc.check_path reporter) paths;
            if json then print_string (Idl.Diag.render_json reporter)
            else (
              let text = Idl.Diag.render_text reporter in
              if text <> "" then prerr_string text;
              let e = Idl.Diag.error_count reporter
              and w = Idl.Diag.warning_count reporter in
              if e > 0 || w > 0 then
                Printf.eprintf "%d error%s, %d warning%s\n" e
                  (if e = 1 then "" else "s")
                  w
                  (if w = 1 then "" else "s"));
            `Ok (if Idl.Diag.has_errors reporter then 1 else 0)
          with Sys_error m ->
            Printf.eprintf "idlc: %s\n" m;
            `Ok 1))

let conc_paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "OCaml sources to analyze: $(b,.ml) files, or directories \
           searched recursively (skipping $(b,_build) and dot \
           directories).")

let conc_cmd =
  let doc = "check the ORB sources' lock-rank discipline (C4xx)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses OCaml sources with the compiler's own parser and checks \
         the concurrency conventions the runtime's $(b,Locked) module \
         documents: rank-ordered lock acquisition (C401), no blocking \
         calls under a lock (C402), no raw threading primitives outside \
         locked.ml (C403), no unlocked mutation of module-level state \
         (C404), no split atomic read-modify-write (C405), and every \
         lock carrying a registered rank (C406).";
      `P
        "The pass is syntactic and per-file; the runtime checker \
         (ORB_LOCK_CHECK=1) covers what wrappers hide from it. Use \
         $(b,--explain) $(i,CODE) for the rationale behind any code.";
    ]
  in
  Cmd.v
    (Cmd.info "analyze-conc" ~doc ~man ~exits)
    Term.(
      ret
        (const conc_run $ conc_paths_arg $ json_arg $ werror_arg $ enable_arg
       $ disable_arg $ explain_arg))

(* ---------------- entry point ---------------- *)

let compile_cmd =
  let doc = "template-driven IDL compiler (Welling & Ott, Middleware 2000)" in
  let man =
    [
      `S Manpage.s_commands;
      `P
        "$(b,lint) $(i,FILE)... — statically check IDL files, templates, \
         and interface evolution (see $(b,idlc lint --help)).";
      `P
        "$(b,analyze-conc) $(i,PATH)... — check OCaml sources against the \
         ORB's lock-rank discipline (see $(b,idlc analyze-conc --help)).";
    ]
  in
  Cmd.v
    (Cmd.info "idlc" ~version:"1.0.0" ~doc ~man ~exits)
    Term.(
      ret
        (const run $ input_arg $ mapping_arg $ template_arg $ out_arg $ dump_arg
       $ list_arg $ ir_arg $ ir_list_arg $ from_ir_arg $ werror_arg))

(* [idlc FILE.idl] predates the [lint] subcommand, so dispatch on argv
   rather than Cmd.group (which would eat the positional file argument as
   an unknown command name). *)
let () =
  let eval =
    match Array.to_list Sys.argv with
    | argv0 :: "lint" :: rest ->
        fun () ->
          Cmd.eval_value
            ~argv:(Array.of_list ((argv0 ^ " lint") :: rest))
            lint_cmd
    | argv0 :: "analyze-conc" :: rest ->
        fun () ->
          Cmd.eval_value
            ~argv:(Array.of_list ((argv0 ^ " analyze-conc") :: rest))
            conc_cmd
    | _ -> fun () -> Cmd.eval_value compile_cmd
  in
  match eval () with
  | Ok (`Ok code) -> exit code
  | Ok _ -> exit 0
  | Error _ -> exit 2
  | exception Idl.Diag.Idl_error d ->
      (* Safety net: any diagnostic escaping a command is rendered, not
         dumped as a backtrace. *)
      Format.eprintf "%a@." Idl.Diag.pp d;
      exit 1
