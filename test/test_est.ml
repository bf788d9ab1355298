(* EST construction and serialization tests (paper Figs. 7-8).

   The defining property of the enhanced syntax tree: children are
   grouped by kind regardless of interleaving in the source, with source
   order preserved within each group. *)

module N = Est.Node

let est_of src = Est.Build.of_spec (Est.Resolve.spec (Idl.Parser.parse_string src))

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

let find_interface root name =
  match
    List.find_opt (fun n -> N.name n = name) (N.group root "interfaceList")
  with
  | Some n -> n
  | None -> Alcotest.failf "interface %s not in EST" name

(* Fig. 7: the attribute interleaved between methods q and s lands in its
   own group; the methods stay contiguous and ordered. *)
let test_grouping () =
  let root = est_of fig3_idl in
  let a = find_interface root "A" in
  Alcotest.(check (list string))
    "methods in source order" [ "f"; "g"; "p"; "q"; "s"; "t" ]
    (List.map N.name (N.group a "methodList"));
  Alcotest.(check (list string))
    "attributes grouped separately" [ "button" ]
    (List.map N.name (N.group a "attributeList"))

let test_root_flattening () =
  (* Fig. 9 iterates interfaceList at the root: module members must be
     visible there. *)
  let root = est_of fig3_idl in
  Alcotest.(check (list string))
    "flattened interfaces" [ "S"; "A" ]
    (List.map N.name (N.group root "interfaceList"));
  Alcotest.(check (list string))
    "modules" [ "Heidi" ]
    (List.map N.name (N.group root "moduleList"))

let test_node_sharing () =
  (* The same entity node is aliased between the module's local group and
     the root's flattened group. *)
  let root = est_of fig3_idl in
  let via_root = find_interface root "A" in
  let heidi = List.hd (N.group root "moduleList") in
  let via_module =
    List.find (fun n -> N.name n = "A") (N.group heidi "interfaceList")
  in
  Alcotest.(check bool) "physically shared" true (via_root == via_module)

let test_fig8_properties () =
  let root = est_of fig3_idl in
  let a = find_interface root "A" in
  Alcotest.(check (option string)) "repoId" (Some "IDL:Heidi/A:1.0") (N.prop a "repoId");
  Alcotest.(check (option string)) "Parent (Fig. 8)" (Some "Heidi_S") (N.prop a "Parent");
  Alcotest.(check (option string)) "flatName" (Some "Heidi_A") (N.prop a "flatName");
  let f = List.hd (N.group a "methodList") in
  Alcotest.(check (option string)) "returnType" (Some "void") (N.prop f "returnType");
  let param = List.hd (N.group f "paramList") in
  Alcotest.(check (option string)) "param type" (Some "objref(Heidi_A)") (N.prop param "type");
  Alcotest.(check (option string)) "param typeName (Fig. 8)" (Some "Heidi_A")
    (N.prop param "typeName");
  Alcotest.(check (option string)) "param mode" (Some "in") (N.prop param "paramMode");
  Alcotest.(check (option string)) "no default" (Some "") (N.prop param "defaultParam");
  let p_op = List.nth (N.group a "methodList") 2 in
  let p_param = List.hd (N.group p_op "paramList") in
  Alcotest.(check (option string)) "default value" (Some "int:0")
    (N.prop p_param "defaultParam");
  let g_op = List.nth (N.group a "methodList") 1 in
  let g_param = List.hd (N.group g_op "paramList") in
  Alcotest.(check (option string)) "incopy mode" (Some "incopy")
    (N.prop g_param "paramMode")

let test_alias_props () =
  let root = est_of fig3_idl in
  let heidi = List.hd (N.group root "moduleList") in
  let alias = List.hd (N.group heidi "aliasList") in
  Alcotest.(check (option string)) "type" (Some "sequence(objref(Heidi_S))")
    (N.prop alias "type");
  Alcotest.(check (option string)) "typeKind" (Some "sequence") (N.prop alias "typeKind");
  Alcotest.(check (option string)) "seqElemType" (Some "objref(Heidi_S)")
    (N.prop alias "seqElemType");
  Alcotest.(check (option string)) "IsVariable equivalent" (Some "true")
    (N.prop alias "isVariable")

let test_all_method_list () =
  let root = est_of fig3_idl in
  let a = find_interface root "A" in
  Alcotest.(check (list string))
    "allMethodList: inherited first" [ "ping"; "f"; "g"; "p"; "q"; "s"; "t" ]
    (List.map N.name (N.group a "allMethodList"));
  Alcotest.(check (list string))
    "inheritedList" [ "S" ]
    (List.map N.name (N.group a "inheritedList"))

let test_enum_members () =
  let root = est_of fig3_idl in
  let heidi = List.hd (N.group root "moduleList") in
  let status = List.hd (N.group heidi "enumList") in
  Alcotest.(check (list string)) "members" [ "Start"; "Stop" ]
    (List.map N.name (N.group status "memberList"));
  Alcotest.(check (option string)) "index" (Some "1")
    (N.prop (List.nth (N.group status "memberList") 1) "memberIndex")

(* ---------------- node primitives ---------------- *)

let test_node_ops () =
  let n = N.create ~name:"x" ~kind:"K" in
  N.add_prop n "a" "1";
  N.add_prop n "b" "2";
  N.add_prop n "a" "3" (* replace keeps position *);
  Alcotest.(check (list (pair string string))) "props" [ ("a", "3"); ("b", "2") ] (N.props n);
  let c1 = N.create ~name:"c1" ~kind:"C" and c2 = N.create ~name:"c2" ~kind:"C" in
  N.add_child n ~group:"g" c1;
  N.add_child n ~group:"g" c2;
  Alcotest.(check int) "group size" 2 (List.length (N.group n "g"));
  Alcotest.(check int) "tree size" 3 (N.size n);
  Alcotest.(check bool) "missing group" true (N.group n "nope" = [])

let test_prop_replace_in_place () =
  let n = N.create ~name:"x" ~kind:"K" in
  List.iter (fun k -> N.add_prop n k ("old " ^ k)) [ "a"; "b"; "c" ];
  N.add_prop n "b" "new";
  Alcotest.(check (list (pair string string)))
    "b keeps its position" [ ("a", "old a"); ("b", "new"); ("c", "old c") ] (N.props n);
  Alcotest.(check (option string)) "new value read back" (Some "new") (N.prop n "b")

(* More properties than a node starts with room for, so the store has
   grown several times; order, values and replacement survive it. *)
let test_prop_growth () =
  let n = N.create ~name:"x" ~kind:"K" in
  let keys = List.init 40 (Printf.sprintf "k%d") in
  List.iter (fun k -> N.add_prop n k (k ^ "=v")) keys;
  N.add_prop n "k5" "replaced";
  let expected = List.map (fun k -> (k, if k = "k5" then "replaced" else k ^ "=v")) keys in
  Alcotest.(check (list (pair string string))) "insertion order" expected (N.props n);
  List.iter
    (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (N.prop n k))
    expected

let test_prop_missing () =
  let empty = N.create ~name:"x" ~kind:"K" in
  Alcotest.(check (option string)) "empty node" None (N.prop empty "a");
  Alcotest.(check string) "prop_or" "d" (N.prop_or empty "a" ~default:"d");
  let n = N.create ~name:"x" ~kind:"K" in
  List.iter (fun k -> N.add_prop n k "") (List.init 20 (Printf.sprintf "k%d"));
  Alcotest.(check (option string)) "full node" None (N.prop n "k20");
  Alcotest.(check (option string)) "empty value is present" (Some "") (N.prop n "k0")

let test_node_equal () =
  let mk props =
    let n = N.create ~name:"x" ~kind:"K" in
    List.iter (fun (k, v) -> N.add_prop n k v) props;
    N.add_child n ~group:"g" (N.create ~name:"c" ~kind:"C");
    n
  in
  let base = [ ("a", "1"); ("b", "2") ] in
  Alcotest.(check bool) "same" true (N.equal (mk base) (mk base));
  Alcotest.(check bool) "same after a replace" true
    (N.equal (mk base) (mk (base @ [ ("a", "1") ])));
  Alcotest.(check bool) "value differs" false (N.equal (mk base) (mk [ ("a", "1"); ("b", "3") ]));
  Alcotest.(check bool) "extra property" false (N.equal (mk base) (mk (base @ [ ("c", "") ])));
  Alcotest.(check bool) "order differs" false (N.equal (mk base) (mk (List.rev base)));
  Alcotest.(check bool) "built trees" true (N.equal (est_of fig3_idl) (est_of fig3_idl))

(* Template evaluation looks properties up on every line it emits, so
   [prop] must allocate nothing, hit or miss. Allocation counts are
   exact, so this is no timing gate. *)
let test_prop_allocation_free () =
  let nodes = ref [] in
  N.iter (fun n -> nodes := n :: !nodes) (est_of fig3_idl);
  let targets =
    Array.of_list
      (List.concat_map
         (fun n -> (n, "noSuchProperty") :: List.map (fun (k, _) -> (n, k)) (N.props n))
         !nodes)
  in
  let hits = ref 0 and misses = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let n, k = targets.(i mod Array.length targets) in
    match N.prop n k with Some _ -> incr hits | None -> incr misses
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "hits and misses" true (!hits > 0 && !misses > 0);
  Alcotest.(check (float 0.)) "minor words for 10,000 lookups" 0. words

(* ---------------- dumps ---------------- *)

let test_perl_dump_shape () =
  let root = est_of fig3_idl in
  let perl = Est.Dump.to_perl root in
  List.iter
    (fun needle ->
      if
        not
          (Tutil.contains perl needle)
      then Alcotest.failf "perl dump is missing %S" needle)
    [
      "use Ast;";
      "Ast::New(\"Heidi\", \"Module\"";
      "Ast::New(\"A\", \"Interface\"";
      "AddProp(\"Parent\", \"Heidi_S\")";
      "AddProp(\"typeName\", \"Heidi_A\")";
      "# IDL:Heidi/A:1.0";
    ]

let test_text_roundtrip () =
  let root = est_of fig3_idl in
  let text = Est.Dump.to_text root in
  let back = Est.Dump.of_text text in
  Alcotest.(check bool) "equal" true (N.equal root back);
  (* Values with every awkward character survive. *)
  let n = N.create ~name:"weird \"name\"\n" ~kind:"K" in
  N.add_prop n "k ey" "v\\al\"ue\nwith\tstuff\001";
  let back2 = Est.Dump.of_text (Est.Dump.to_text n) in
  Alcotest.(check bool) "weird chars" true (N.equal n back2)

let test_text_errors () =
  List.iter
    (fun s ->
      match Est.Dump.of_text s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "expected of_text failure for %S" s)
    [
      "";
      "node \"K\"";
      "node \"K\" \"n\" prop \"a\"";
      "node \"K\" \"n\" group \"g\" endnode";
      "node \"K\" \"n\" endnode trailing";
    ]

(* ---------------- golden guard ---------------- *)

(* Specs under idl/shapes with the shapes the EST build shares or walks
   through the entity table: deep inheritance across modules, structs
   nesting structs directly and through aliases, unions with struct
   arms, colliding flat names. Their goldens hold the EST text dump and
   each mapping's output, byte for byte. *)
let golden_dir = "idl/shapes"
let golden_specs = [ "shapes"; "union" ]
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every generated file under a header line, then stdout; or the error
   that stopped the mapping. *)
let render_mapping (m : Mappings.Mapping.t) ~filename src =
  match Core.Compiler.compile_string ~filename ~mapping:m src with
  | r ->
      String.concat ""
        (List.map (fun (name, c) -> Printf.sprintf "=== %s\n%s" name c) r.Core.Compiler.files)
      ^ Printf.sprintf "=== stdout\n%s" r.stdout
  | exception e -> Printf.sprintf "error: %s\n" (Printexc.to_string e)

let test_golden_guard () =
  List.iter
    (fun spec ->
      let src = read_file (Filename.concat golden_dir (spec ^ ".idl")) in
      let check what actual =
        let golden = Filename.concat golden_dir (Printf.sprintf "%s.%s.golden" spec what) in
        Alcotest.(check string) golden (read_file golden) actual
      in
      check "est" (Est.Dump.to_text (est_of src));
      List.iter
        (fun (m : Mappings.Mapping.t) ->
          check m.name (render_mapping m ~filename:(spec ^ ".idl") src))
        Mappings.Registry.all)
    golden_specs

(* ---------------- build cost ---------------- *)

(* An interface's inherited operations and attributes are its ancestors'
   own nodes, not copies. *)
let test_inherited_nodes_shared () =
  let root = est_of (read_file (Filename.concat golden_dir "shapes.idl")) in
  let scene = find_interface root "Scene" in
  let ancestors =
    List.map
      (fun b -> find_interface root (N.name b))
      (N.group scene "allInheritedList")
  in
  Alcotest.(check (list string))
    "ancestors, base first" [ "Base"; "Mid"; "Canvas"; "Layer" ]
    (List.map N.name ancestors);
  let check_shared all own =
    let expected = List.concat_map (fun a -> N.group a own) (ancestors @ [ scene ]) in
    Alcotest.(check int) (all ^ " length") (List.length expected)
      (List.length (N.group scene all));
    List.iter2
      (fun e a -> Alcotest.(check bool) (all ^ " shares " ^ N.name e) true (e == a))
      expected (N.group scene all)
  in
  check_shared "allMethodList" "methodList";
  check_shared "allAttributeList" "attributeList"

(* Minor words allocated by Build.of_spec per entity, on a generated
   spec of [modules] modules. *)
let build_words_per_entity modules =
  let sem = Est.Resolve.spec (Idl.Parser.parse_string (Scale_idl.generate ~modules)) in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Est.Build.of_spec sem));
  (Gc.minor_words () -. w0) /. float_of_int (Hashtbl.length sem.Est.Sem.entities)

(* Building is linear in the declarations: per entity, a spec four times
   larger allocates at most 1.2x as much. Allocation counts are exact,
   so this is no timing gate. A quadratic term shows as 1.6x here. *)
let test_build_allocation_linear () =
  let small = build_words_per_entity 8 and large = build_words_per_entity 32 in
  if large > 1.2 *. small then
    Alcotest.failf "minor words per entity: %.0f at 8 modules, %.0f at 32 (%.2fx > 1.2x)"
      small large (large /. small)

let () =
  Alcotest.run "est"
    [
      ( "grouping",
        [
          Alcotest.test_case "kind grouping (Fig. 7)" `Quick test_grouping;
          Alcotest.test_case "root flattening" `Quick test_root_flattening;
          Alcotest.test_case "node sharing" `Quick test_node_sharing;
          Alcotest.test_case "Fig. 8 properties" `Quick test_fig8_properties;
          Alcotest.test_case "alias/sequence properties" `Quick test_alias_props;
          Alcotest.test_case "allMethodList" `Quick test_all_method_list;
          Alcotest.test_case "enum members" `Quick test_enum_members;
        ] );
      ( "node",
        [
          Alcotest.test_case "primitives" `Quick test_node_ops;
          Alcotest.test_case "replace in place" `Quick test_prop_replace_in_place;
          Alcotest.test_case "more props than capacity" `Quick test_prop_growth;
          Alcotest.test_case "missing prop" `Quick test_prop_missing;
          Alcotest.test_case "equal" `Quick test_node_equal;
          Alcotest.test_case "prop allocates nothing" `Quick test_prop_allocation_free;
        ] );
      ( "dump",
        [
          Alcotest.test_case "perl rendering (Fig. 8)" `Quick test_perl_dump_shape;
          Alcotest.test_case "text round-trip" `Quick test_text_roundtrip;
          Alcotest.test_case "malformed text" `Quick test_text_errors;
        ] );
      ( "build",
        [
          Alcotest.test_case "golden guard" `Quick test_golden_guard;
          Alcotest.test_case "inherited nodes shared" `Quick test_inherited_nodes_shared;
          Alcotest.test_case "allocation linear" `Quick test_build_allocation_linear;
        ] );
    ]
