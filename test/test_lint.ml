(* Tests for the static-analysis subsystem (lib/analysis): the bad-IDL
   corpus against its golden diagnostics, error recovery, the JSON
   renderer, per-code enable/disable, the template checker, the
   interface-evolution checker, and the code table. *)

module Diag = Idl.Diag

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_source ?mappings src =
  let reporter = Diag.reporter () in
  let spec = Analysis.Lint.run_source ?mappings reporter ~filename:"t.idl" src in
  (reporter, spec)

let codes reporter =
  List.map (fun d -> d.Diag.code) (Diag.diagnostics reporter)

(* ---------------- corpus goldens ---------------- *)

let corpus_dir = "idl/bad"

let corpus_cases () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".idl")
  |> List.sort compare

let test_corpus () =
  let cases = corpus_cases () in
  Alcotest.(check bool) "corpus present" true (List.length cases >= 18);
  List.iter
    (fun case ->
      let src = read_file (Filename.concat corpus_dir case) in
      let reporter = Diag.reporter () in
      ignore (Analysis.Lint.run_source reporter ~filename:case src);
      let expected =
        read_file
          (Filename.concat corpus_dir
             (Filename.chop_suffix case ".idl" ^ ".expected"))
      in
      Alcotest.(check string) case expected (Diag.render_text reporter);
      (* Every corpus file is named after the code it provokes. *)
      let code = String.sub case 0 4 in
      Alcotest.(check bool)
        (case ^ " emits " ^ code)
        true
        (List.exists (fun d -> d.Diag.code = code) (Diag.diagnostics reporter)))
    cases

let test_corpus_codes_known () =
  List.iter
    (fun case ->
      let code = String.sub case 0 4 in
      Alcotest.(check bool) (code ^ " in table") true (Analysis.Codes.is_known code))
    (corpus_cases ())

(* ---------------- recovery ---------------- *)

let test_recovery_multiple () =
  (* Three independent problems in three entities: one run finds all. *)
  let reporter, _ =
    lint_source
      {|
        interface A { void f(in Nope1 x); };
        interface B { void g(in Nope2 y); };
        const long N = 1 / 0;
      |}
  in
  Alcotest.(check (list string)) "all three" [ "E003"; "E003"; "E006" ]
    (codes reporter)

let test_no_reporter_still_raises () =
  (* Without a reporter the historic abort-on-first-error contract holds. *)
  match
    Est.Resolve.spec (Idl.Parser.parse_string "interface A { void f(in Nope x); };")
  with
  | _ -> Alcotest.fail "expected Idl_error"
  | exception Diag.Idl_error d ->
      Alcotest.(check string) "code" "E003" d.Diag.code

let test_dedup () =
  (* A failing struct referenced twice re-resolves and re-fails; the
     reporter keeps one copy. *)
  let reporter, _ =
    lint_source
      {|
        struct S { Nope n; };
        interface I { void f(in S a); void g(in S b); };
      |}
  in
  let e003 = List.filter (fun c -> c = "E003") (codes reporter) in
  Alcotest.(check int) "one E003" 1 (List.length e003)

(* Two domains lint at the same time, each with its own reporter, while
   this domain compiles a one-error spec with none. Every lint must count
   exactly its own errors, and every compile must still raise: a reporter
   shared across domains would catch the compile's error, or leave a
   lint's errors to escape. *)
let test_lint_across_domains () =
  let iterations = 2000 in
  let unresolved n =
    String.concat "\n"
      (List.init n (fun i ->
           Printf.sprintf "interface I%d { void f(in Nope%d x); };" i i))
  in
  let lint n () =
    let src = unresolved n in
    let miscounted = ref 0 in
    for _ = 1 to iterations do
      let reporter = Diag.reporter () in
      ignore (Analysis.Lint.run_source reporter ~filename:"t.idl" src);
      if Diag.error_count reporter <> n then incr miscounted
    done;
    !miscounted
  in
  let lints = List.map (fun n -> (n, Domain.spawn (lint n))) [ 3; 5 ] in
  let unraised = ref 0 in
  for _ = 1 to iterations do
    match Core.Compiler.est_of_string (unresolved 1) with
    | _ -> incr unraised
    | exception Diag.Idl_error _ -> ()
  done;
  List.iter
    (fun (n, d) ->
      Alcotest.(check int)
        (Printf.sprintf "%d-error lints miscounted" n)
        0 (Domain.join d))
    lints;
  Alcotest.(check int) "compiles that did not raise" 0 !unraised

(* ---------------- rendering and per-code control ---------------- *)

let test_json () =
  let reporter, _ =
    lint_source "interface A { void f(); };\nstruct A { long x; };"
  in
  let json = String.trim (Diag.render_json reporter) in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "array" true
    (String.length json > 1 && json.[0] = '[' && json.[String.length json - 1] = ']');
  Alcotest.(check bool) "code field" true (contains {|"code":"E002"|});
  Alcotest.(check bool) "severity field" true (contains {|"severity":"error"|});
  Alcotest.(check bool) "note carried" true
    (contains "previous declaration is here")

let test_disable_enable () =
  let src = "struct Unused { long x; };\ninterface I { void f(); };" in
  let reporter = Diag.reporter () in
  Diag.set_enabled reporter "W104" false;
  ignore (Analysis.Lint.run_source reporter ~filename:"t.idl" src);
  Alcotest.(check (list string)) "disabled" [] (codes reporter);
  let reporter = Diag.reporter () in
  Diag.set_enabled reporter "W104" false;
  Diag.set_enabled reporter "W104" true;
  ignore (Analysis.Lint.run_source reporter ~filename:"t.idl" src);
  Alcotest.(check (list string)) "re-enabled" [ "W104" ] (codes reporter)

let test_werror () =
  let src = "struct Unused { long x; };\ninterface I { void f(); };" in
  let reporter = Diag.reporter ~werror:true () in
  ignore (Analysis.Lint.run_source reporter ~filename:"t.idl" src);
  Alcotest.(check bool) "warning became fatal" true (Diag.has_errors reporter);
  Alcotest.(check int) "error_count" 1 (Diag.error_count reporter)

(* ---------------- template checker ---------------- *)

let tmpl_codes src =
  let reporter = Diag.reporter () in
  ignore (Analysis.Tmpl_check.check_source reporter ~filename:"t.tmpl" src);
  codes reporter

(* The Fig. 9 template with one variable misspelled: the checker must
   reject it without any IDL input. *)
let fig9_bad =
  {|@foreach interfaceList -map interfaceName CPP::MapClassName
@openfile ${interfaceName}.hh
class ${interfaceName}
{
public:
@foreach methodList -map returnType CPP::MapReturnType
  virtual ${returnType} ${metodName}() = 0;
@end methodList
};
@end interfaceList
|}

let test_fig9_unbound () =
  Alcotest.(check (list string)) "typo found" [ "T202" ] (tmpl_codes fig9_bad)

let test_shipped_templates_clean () =
  List.iter
    (fun path ->
      let reporter = Diag.reporter () in
      ignore
        (Analysis.Tmpl_check.check_source reporter ~filename:path
           (read_file path));
      Alcotest.(check (list string)) (path ^ " clean") [] (codes reporter))
    [ "../templates/fig9_interface.tmpl"; "../templates/markdown_doc.tmpl" ]

let test_builtin_mapping_templates_clean () =
  List.iter
    (fun (m : Mappings.Mapping.t) ->
      List.iter
        (fun tname ->
          match Mappings.Mapping.template m tname with
          | None -> ()
          | Some src ->
              let reporter = Diag.reporter () in
              let filename = m.Mappings.Mapping.name ^ "/" ^ tname in
              ignore (Analysis.Tmpl_check.check_source reporter ~filename src);
              Alcotest.(check (list string)) (filename ^ " clean") []
                (codes reporter))
        (Mappings.Mapping.template_names m))
    Mappings.Registry.all

let test_template_codes () =
  Alcotest.(check (list string)) "unbalanced" [ "T201" ]
    (tmpl_codes "@foreach interfaceList\nx\n");
  Alcotest.(check (list string)) "unknown map fn" [ "T203" ]
    (tmpl_codes
       "@foreach interfaceList -map interfaceName No::SuchFn\n${interfaceName}\n@end interfaceList\n");
  Alcotest.(check (list string)) "inline unknown map fn" [ "T203" ]
    (tmpl_codes
       "@foreach interfaceList\n${interfaceName:No::SuchFn}\n@end interfaceList\n");
  (* One bad group: a single T204, no cascade from its body. *)
  Alcotest.(check (list string)) "unknown group, no cascade" [ "T204" ]
    (tmpl_codes
       "@foreach bogusList\n${whatever}\n@foreach alsoBogus\n${x}\n@end alsoBogus\n@end bogusList\n");
  Alcotest.(check (list string)) "openfile unbound" [ "T205" ]
    (tmpl_codes "@openfile ${nope}.hh\n");
  (* @if condition variables are checked too. *)
  Alcotest.(check (list string)) "if cond unbound" [ "T202" ]
    (tmpl_codes "@if ${nope} == \"x\"\ny\n@fi\n");
  (* Loop bindings and outward resolution are understood. *)
  Alcotest.(check (list string)) "loop bindings ok" []
    (tmpl_codes
       "@foreach interfaceList\n${index}/${count} ${fileBase} ${ifMore}\n@end interfaceList\n")

(* A template the checker passes must not fail to evaluate for a lack
   of scope: [seqElemType] is on every typed node, [""] off sequences. *)
let test_lint_clean_compiles () =
  let src =
    "@foreach structList\n@foreach memberList\n${memberName} ${seqElemType}\n\
     @end memberList\n@end structList\n"
  in
  Alcotest.(check (list string)) "lints clean" [] (tmpl_codes src);
  let root = Core.Compiler.est_of_string "struct S { long x; };" in
  let out = Core.Compiler.generate ~templates:[ ("probe", src) ] root in
  Alcotest.(check string) "compiles" "x \n" out.Core.Compiler.stdout

(* The checker's schema is exact: every node Est.Build makes for the
   shipped IDL has a kind the schema lists, exactly that kind's
   properties, and only that kind's groups, holding that group's kind. *)
let test_schema_matches_build () =
  let idl_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".idl")
    |> List.map (Filename.concat dir)
  in
  let files = idl_files "../examples/idl" @ idl_files "idl/shapes" in
  Alcotest.(check bool) "found the IDL files" true (List.length files >= 5);
  let sorted l = List.sort_uniq compare l in
  List.iter
    (fun path ->
      let root = Core.Compiler.est_of_string ~filename:path (read_file path) in
      Est.Node.iter
        (fun n ->
          let kind = Est.Node.kind n in
          let where = Printf.sprintf "%s: %s %S" path kind (Est.Node.name n) in
          match List.assoc_opt kind Analysis.Tmpl_check.schema with
          | None -> Alcotest.failf "%s: kind not in the schema" where
          | Some { Analysis.Tmpl_check.props; groups } ->
              Alcotest.(check (list string)) (where ^ " props") (sorted props)
                (sorted (List.map fst (Est.Node.props n)));
              List.iter
                (fun (g, children) ->
                  match List.assoc_opt g groups with
                  | None -> Alcotest.failf "%s: group %S not in the schema" where g
                  | Some child_kind ->
                      List.iter
                        (fun c ->
                          Alcotest.(check string) (where ^ " " ^ g) child_kind
                            (Est.Node.kind c))
                        children)
                (Est.Node.groups n))
        root)
    files

(* ---------------- interface evolution ---------------- *)

let est src = Core.Compiler.est_of_string ~filename:"t.idl" src

let diff old_src new_src =
  let reporter = Diag.reporter () in
  Analysis.Evolve.diff_roots reporter ~file:"t.idl" ~old_root:(est old_src)
    (est new_src);
  codes reporter

let test_evolution () =
  let v1 =
    "interface Account { void deposit(in long amount); long balance(); };"
  in
  Alcotest.(check (list string)) "unchanged is clean" [] (diff v1 v1);
  Alcotest.(check (list string)) "removed operation" [ "V301" ]
    (diff v1 "interface Account { void deposit(in long amount); };");
  Alcotest.(check (list string)) "changed param type" [ "V302" ]
    (diff v1
       "interface Account { void deposit(in double amount); long balance(); };");
  Alcotest.(check (list string)) "changed param mode" [ "V302" ]
    (diff v1
       "interface Account { void deposit(inout long amount); long balance(); };");
  Alcotest.(check (list string)) "reordered operations" [ "V304" ]
    (diff v1 "interface Account { long balance(); void deposit(in long amount); };");
  Alcotest.(check (list string)) "added operation is benign" [ "W310" ]
    (diff v1
       "interface Account { void deposit(in long amount); long balance(); \
        void close(); };");
  Alcotest.(check (list string)) "removed interface" [ "V301" ] (diff v1 "");
  Alcotest.(check (list string)) "new interface is benign" [ "W310" ]
    (diff "" v1)

let test_evolution_repo_id () =
  let v1 = "interface I { void f(); };" in
  let v2 = "#pragma prefix \"acme.example\"\ninterface I { void f(); };" in
  Alcotest.(check (list string)) "prefix change breaks identity" [ "V303" ]
    (diff v1 v2)

let test_evolution_oneway_and_raises () =
  let v1 = "exception E {}; interface I { void f() raises (E); };" in
  Alcotest.(check (list string)) "dropped raises" [ "V302" ]
    (diff v1 "exception E {}; interface I { void f(); };");
  let v3 = "interface J { void g(in long x); };" in
  Alcotest.(check (list string)) "became oneway" [ "V302" ]
    (diff v3 "interface J { oneway void g(in long x); };")

let test_evolution_attributes () =
  let v1 = "interface I { attribute long a; };" in
  Alcotest.(check (list string)) "attr type change" [ "V302" ]
    (diff v1 "interface I { attribute double a; };");
  Alcotest.(check (list string)) "attr became readonly" [ "V302" ]
    (diff v1 "interface I { readonly attribute long a; };");
  Alcotest.(check (list string)) "attr removed" [ "V301" ]
    (diff v1 "interface I { void pad(); };"
    |> List.filter (fun c -> c = "V301"))

(* ---------------- the code table ---------------- *)

let test_codes_table () =
  List.iter
    (fun (i : Analysis.Codes.info) ->
      Alcotest.(check bool) (i.code ^ " explained") true
        (Analysis.Codes.explain i.code <> None))
    Analysis.Codes.all;
  Alcotest.(check (option string)) "unknown" None (Analysis.Codes.explain "E999");
  (* The explain text for E010 mentions the pragma that causes it. *)
  match Analysis.Codes.explain "E010" with
  | None -> Alcotest.fail "E010 missing"
  | Some text ->
      let contains needle =
        let n = String.length needle and h = String.length text in
        let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "mentions pragma prefix" true (contains "pragma")

let test_reserved_tables () =
  List.iter
    (fun (m : Mappings.Mapping.t) ->
      Alcotest.(check bool)
        (m.Mappings.Mapping.name ^ " has reserved words")
        true
        (m.Mappings.Mapping.reserved <> []))
    Mappings.Registry.all;
  (* Keyword collisions are mapping-aware: "object" is reserved in OCaml
     but not in C++. *)
  let find name =
    match Mappings.Registry.find name with
    | Some m -> m
    | None -> Alcotest.fail ("mapping " ^ name)
  in
  Alcotest.(check bool) "ocaml flags object" true
    (Mappings.Mapping.is_reserved (find "ocaml") "object");
  Alcotest.(check bool) "cpp does not flag object" false
    (Mappings.Mapping.is_reserved (find "heidi-cpp") "object");
  let reporter = Diag.reporter () in
  ignore
    (Analysis.Lint.run_source
       ~mappings:[ find "heidi-cpp" ]
       reporter ~filename:"t.idl"
       "interface I { void f(in long object); };");
  Alcotest.(check (list string)) "cpp-only lint is clean" [] (codes reporter)

let () =
  Alcotest.run "lint"
    [
      ( "corpus",
        [
          Alcotest.test_case "goldens" `Quick test_corpus;
          Alcotest.test_case "codes known" `Quick test_corpus_codes_known;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "multiple diagnostics" `Quick test_recovery_multiple;
          Alcotest.test_case "no reporter raises" `Quick test_no_reporter_still_raises;
          Alcotest.test_case "cascade dedup" `Quick test_dedup;
          Alcotest.test_case "across domains" `Quick test_lint_across_domains;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "disable/enable" `Quick test_disable_enable;
          Alcotest.test_case "werror" `Quick test_werror;
        ] );
      ( "templates",
        [
          Alcotest.test_case "fig9 unbound var" `Quick test_fig9_unbound;
          Alcotest.test_case "shipped templates clean" `Quick
            test_shipped_templates_clean;
          Alcotest.test_case "built-in mapping templates clean" `Quick
            test_builtin_mapping_templates_clean;
          Alcotest.test_case "T201-T205" `Quick test_template_codes;
          Alcotest.test_case "lint-clean template compiles" `Quick
            test_lint_clean_compiles;
          Alcotest.test_case "schema matches Build" `Quick
            test_schema_matches_build;
        ] );
      ( "evolution",
        [
          Alcotest.test_case "operations" `Quick test_evolution;
          Alcotest.test_case "repository id" `Quick test_evolution_repo_id;
          Alcotest.test_case "oneway and raises" `Quick
            test_evolution_oneway_and_raises;
          Alcotest.test_case "attributes" `Quick test_evolution_attributes;
        ] );
      ( "codes",
        [
          Alcotest.test_case "table" `Quick test_codes_table;
          Alcotest.test_case "reserved words" `Quick test_reserved_tables;
        ] );
    ]
