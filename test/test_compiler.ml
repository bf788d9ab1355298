(* Compiler-driver tests (paper Fig. 6): the two-stage pipeline, custom
   templates, output merging, and file writing. *)

let heidi = Option.get (Mappings.Registry.find "heidi-cpp")

let test_stage_separation () =
  (* Stage 1 alone produces an EST; stage 2 alone consumes it. The EST
     can even cross a serialization boundary (the paper's stage 1 emitted
     a program that rebuilt the EST in the code generator's process). *)
  let est = Core.Compiler.est_of_string ~file_base:"A" "interface A { void f(); };" in
  let text = Est.Dump.to_text est in
  let rebuilt = Est.Dump.of_text text in
  let result =
    Core.Compiler.generate ~maps:heidi.Mappings.Mapping.maps
      ~templates:heidi.Mappings.Mapping.templates rebuilt
  in
  Tutil.check_contains ~what:"generated from rebuilt EST"
    (List.assoc "A.hh" result.Core.Compiler.files)
    "class HdA"

let test_file_base_defaults () =
  let est = Core.Compiler.est_of_string ~filename:"dir/Thing.idl" "enum E { a };" in
  Alcotest.(check (option string)) "fileBase from filename" (Some "Thing")
    (Est.Node.prop est "fileBase");
  let est2 = Core.Compiler.est_of_string "enum E { a };" in
  Alcotest.(check (option string)) "fallback" (Some "out") (Est.Node.prop est2 "fileBase")

let test_custom_template () =
  (* The paper's headline: change the mapping by writing a template, not
     by touching the compiler. A six-line custom template produces a
     completely different output format from the same front-end. *)
  let tmpl =
    {|@foreach interfaceList
${repoId} has:
@foreach methodList -ifMore ', '
  operation ${methodName}
@end methodList
@end interfaceList|}
  in
  let est =
    Core.Compiler.est_of_string ~file_base:"x"
      "interface I { void a(); void b(); };"
  in
  let result = Core.Compiler.generate ~templates:[ ("inventory", tmpl) ] est in
  Alcotest.(check string) "custom output"
    "IDL:I:1.0 has:\n  operation a\n  operation b\n"
    result.Core.Compiler.stdout

let test_output_merging () =
  (* Two templates appending to the same @openfile target. *)
  let t1 = "@openfile out.txt\nfirst\n" in
  let t2 = "@openfile out.txt\nsecond\n" in
  let est = Core.Compiler.est_of_string "enum E { a };" in
  let result = Core.Compiler.generate ~templates:[ ("t1", t1); ("t2", t2) ] est in
  Alcotest.(check (list (pair string string)))
    "merged" [ ("out.txt", "first\nsecond\n") ] result.Core.Compiler.files

let test_write_result () =
  let dir = Filename.temp_file "idlc" "" in
  Sys.remove dir;
  let result =
    Core.Compiler.compile_string ~file_base:"W" ~mapping:heidi
      "interface W { void go(); };"
  in
  let written = Core.Compiler.write_result ~dir result in
  Alcotest.(check int) "three files" 3 (List.length written);
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path))
    written;
  let ic = open_in (Filename.concat dir "W.hh") in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Tutil.check_contains ~what:"content" content "class HdW";
  List.iter Sys.remove written;
  Sys.rmdir dir

let test_errors_propagate () =
  (match Core.Compiler.compile_string ~mapping:heidi "interface {" with
  | exception Idl.Diag.Idl_error _ -> ()
  | _ -> Alcotest.fail "syntax error not raised");
  (match Core.Compiler.compile_string ~mapping:heidi "interface I : Nope { };" with
  | exception Idl.Diag.Idl_error _ -> ()
  | _ -> Alcotest.fail "semantic error not raised");
  let est = Core.Compiler.est_of_string "enum E { a };" in
  match Core.Compiler.generate ~templates:[ ("bad", "${nope}") ] est with
  | exception Template.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "template error not raised"

(* Every built-in mapping compiles the kitchen-sink IDL without error —
   a smoke test over the whole template surface. *)
let kitchen_sink =
  {|module Zoo {
      enum Kind { lion, tiger };
      const long MAX = 100;
      typedef sequence<Kind> Kinds;
      typedef string Label;
      struct Cage { Label label; long capacity; boolean open_; };
      exception Full { long capacity; };
      interface Animal { readonly attribute Kind kind; void feed(in long amount); };
      interface Keeper : Animal {
        long assign(in Animal beast, in Cage cage) raises (Full);
        Kinds kinds();
        oneway void wave(in string greeting);
        void nap(in long minutes = 10);
      };
    };|}

let test_all_mappings_compile_kitchen_sink () =
  List.iter
    (fun (m : Mappings.Mapping.t) ->
      let result =
        Core.Compiler.compile_string ~file_base:"zoo" ~mapping:m kitchen_sink
      in
      Alcotest.(check bool)
        (m.Mappings.Mapping.name ^ " produced output")
        true
        (result.Core.Compiler.files <> []))
    Mappings.Registry.all

(* Under `dune runtest` the cwd is _build/default/test; under a direct
   `dune exec` it is the project root. *)
let read_file path =
  let path = if Sys.file_exists path then path else String.sub path 3 (String.length path - 3) in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let all_maps =
  List.fold_left
    (fun acc (m : Mappings.Mapping.t) ->
      Template.Maps.union acc m.Mappings.Mapping.maps)
    (Template.Maps.create ()) Mappings.Registry.all

(* The template files shipped under templates/ must keep working as
   idlc --template inputs. *)
let test_shipped_fig9_template () =
  let src = read_file "../templates/fig9_interface.tmpl" in
  let est = Core.Compiler.est_of_string ~file_base:"A" kitchen_sink in
  let result = Core.Compiler.generate ~maps:all_maps ~templates:[ ("fig9", src) ] est in
  let keeper = List.assoc "HdKeeper.hh" result.Core.Compiler.files in
  (* The Hd naming convention strips only the Heidi scope, so Zoo::Animal
     becomes HdZooAnimal (the figure's template was written for module
     Heidi, where the scope disappears). *)
  Tutil.check_contains ~what:"inheritance" keeper "virtual public HdZooAnimal";
  Tutil.check_contains ~what:"default param" keeper "long minutes = 10";
  let animal = List.assoc "HdAnimal.hh" result.Core.Compiler.files in
  Tutil.check_contains ~what:"getter (figure style)" animal
    "virtual HdZooKind GetKind() const = 0;"

let test_shipped_markdown_template () =
  let src = read_file "../templates/markdown_doc.tmpl" in
  let est = Core.Compiler.est_of_string ~file_base:"zoo" kitchen_sink in
  let result = Core.Compiler.generate ~maps:all_maps ~templates:[ ("md", src) ] est in
  let md = List.assoc "zoo.md" result.Core.Compiler.files in
  Tutil.check_contains ~what:"interface heading" md "## interface `Zoo::Keeper`";
  Tutil.check_contains ~what:"repo id" md "`IDL:Zoo/Keeper:1.0`";
  Tutil.check_contains ~what:"oneway note" md "*oneway*";
  Tutil.check_contains ~what:"default note" md "default `int:10`";
  Tutil.check_contains ~what:"raises" md "Raises `IDL:Zoo/Full:1.0`"

(* Byte identity of every mapping's output. Each entry is the Digest of
   one compile's stdout and of every generated file (name and contents,
   in generation order), for the example IDL files and a scaled synthetic
   spec under all five mappings. A change meant to leave the generated
   code alone must pass this table unedited. *)
let identity_inputs =
  List.map
    (fun f -> (f, read_file ("../examples/idl/" ^ f)))
    [ "A.idl"; "Receiver.idl"; "heidi.idl" ]
  @ [ ("scale8.idl", Scale_idl.generate ~modules:8) ]

let output_digest (r : Core.Compiler.result) =
  let b = Buffer.create 4096 in
  let add name contents =
    Printf.bprintf b "%s\n%d\n" name (String.length contents);
    Buffer.add_string b contents
  in
  add "<stdout>" r.Core.Compiler.stdout;
  List.iter (fun (name, contents) -> add name contents) r.Core.Compiler.files;
  Digest.to_hex (Digest.string (Buffer.contents b))

let output_digests =
  [
    ("A.idl heidi-cpp", "33677852b735272f7be9d1e3529402de");
    ("A.idl corba-cpp", "0fceb3246a3aff0db85f1632de204275");
    ("A.idl java", "57fcc2fdcc23b39b6ab2af1c8132272d");
    ("A.idl tcl", "d3508b3fe55cb5a3e96664b7da551403");
    ("A.idl ocaml", "0c2fb4b7138e213c0949b461020bf610");
    ("Receiver.idl heidi-cpp", "c6f57f917a31ec547b71b74f5afe3608");
    ("Receiver.idl corba-cpp", "7114daaad9dbab6fa87932c783ed034b");
    ("Receiver.idl java", "cc5c7dda276760a711d7e8efd5044fd3");
    ("Receiver.idl tcl", "67d9a90b7d6ae997d3e0399766aa6f62");
    ("Receiver.idl ocaml", "351fa93241fcbccbcbb32dc39e870115");
    ("heidi.idl heidi-cpp", "b73da39d5d9a0de4b3e3f44656ae65a6");
    ("heidi.idl corba-cpp", "d7c6010957704638a35d21670bbc0b87");
    ("heidi.idl java", "6877d8415b760bc0b437cf0dfd5883e6");
    ("heidi.idl tcl", "135b228d96c2fa7e2f50e687cc61df4f");
    ("heidi.idl ocaml", "591c12e9341e451dfc337554c653fc48");
    ("scale8.idl heidi-cpp", "e4ba66bbe46348603e673a98f80cf548");
    ("scale8.idl corba-cpp", "1d71a834a61f734b9312e8a961c5291c");
    ("scale8.idl java", "11a5a6e4107a430670a3f7e588c7fcd3");
    ("scale8.idl tcl", "69ae9c4a53ebccb54f6b6eaeec0b03be");
    ("scale8.idl ocaml", "5d3e2dfa5202df75b3f2791f4652c772");
  ]

let test_output_identity () =
  let actual =
    List.concat_map
      (fun (filename, src) ->
        List.map
          (fun (m : Mappings.Mapping.t) ->
            ( filename ^ " " ^ m.Mappings.Mapping.name,
              output_digest (Core.Compiler.compile_string ~filename ~mapping:m src) ))
          Mappings.Registry.all)
      identity_inputs
  in
  Alcotest.(check (list (pair string string))) "output digests" output_digests actual

let () =
  Alcotest.run "compiler"
    [
      ( "pipeline",
        [
          Alcotest.test_case "stage separation (Fig. 6)" `Quick test_stage_separation;
          Alcotest.test_case "fileBase defaults" `Quick test_file_base_defaults;
          Alcotest.test_case "custom template" `Quick test_custom_template;
          Alcotest.test_case "output merging" `Quick test_output_merging;
          Alcotest.test_case "write_result" `Quick test_write_result;
          Alcotest.test_case "errors propagate" `Quick test_errors_propagate;
          Alcotest.test_case "kitchen sink through all mappings" `Quick
            test_all_mappings_compile_kitchen_sink;
          Alcotest.test_case "shipped Fig. 9 template" `Quick test_shipped_fig9_template;
          Alcotest.test_case "shipped markdown template" `Quick
            test_shipped_markdown_template;
          Alcotest.test_case "output byte identity" `Quick test_output_identity;
        ] );
    ]
