(* Template engine tests: the Fig. 9 directive set, the inline-map
   extension, escapes, scoping and error reporting. *)

module N = Est.Node

let node_with props groups =
  let n = N.create ~name:"root" ~kind:"Root" in
  List.iter (fun (k, v) -> N.add_prop n k v) props;
  List.iter
    (fun (g, children) ->
      List.iter
        (fun child_props ->
          let c = N.create ~name:"c" ~kind:"Child" in
          List.iter (fun (k, v) -> N.add_prop c k v) child_props;
          N.add_child n ~group:g c)
        children)
    groups;
  n

let render ?maps src node =
  (Template.Eval.render ?maps ~name:"<test>" src node).Template.Eval.stdout

let check = Alcotest.(check string)

(* ---------------- substitution ---------------- *)

let test_substitution () =
  let n = node_with [ ("who", "world") ] [] in
  check "subst" "hello world!\n" (render "hello ${who}!" n)

let test_literal_escape () =
  let n = node_with [ ("x", "1") ] [] in
  check "escape" "literal ${x} and 1\n" (render {|literal $\{x} and ${x}|} n);
  check "plain dollar" "$c insert 1\n" (render "$c insert ${x}" n)

let test_at_escape () =
  check "at" "@foreach is a directive\n"
    (render "@@foreach is a directive" (node_with [] []))

let test_line_joining () =
  let n = node_with [ ("a", "1"); ("b", "2") ] [] in
  check "join" "1 then 2\n" (render "${a} then \\\n${b}" n)

let test_unresolved_variable () =
  match render "${nope}" (node_with [] []) with
  | exception Template.Eval.Eval_error { line = 1; _ } -> ()
  | _ -> Alcotest.fail "expected Eval_error with line info"

(* ---------------- foreach ---------------- *)

let test_foreach_basic () =
  let n =
    node_with []
      [ ("items", [ [ ("v", "a") ]; [ ("v", "b") ]; [ ("v", "c") ] ]) ]
  in
  check "foreach" "-a\n-b\n-c\n" (render "@foreach items\n-${v}\n@end items" n)

let test_foreach_if_more () =
  (* Fig. 9: -ifMore ',' puts the separator after all but the last. *)
  let n = node_with [] [ ("xs", [ [ ("v", "a") ]; [ ("v", "b") ]; [ ("v", "c") ] ]) ] in
  check "ifMore" "a, b, c"
    (render "@foreach xs -ifMore ', '\n${v}${ifMore}\\\n@end xs\n" n)

let test_foreach_bindings () =
  let n = node_with [] [ ("xs", [ [ ("v", "a") ]; [ ("v", "b") ] ]) ] in
  check "index/count" "0/2:a first\n1/2:b last\n"
    (render
       {|@foreach xs
@if ${isFirst}
${index}/${count}:${v} first
@else
${index}/${count}:${v} last
@fi
@end xs|}
       n)

let test_foreach_empty_group () =
  check "empty" "start\nend\n"
    (render "start\n@foreach nothing\n-${v}\n@end nothing\nend" (node_with [] []))

let test_foreach_nested_scope () =
  (* An outer variable stays visible inside a nested loop (Fig. 9 uses
     ${interfaceName} inside methodList). *)
  let outer = N.create ~name:"root" ~kind:"Root" in
  N.add_prop outer "cls" "HdA";
  let m = N.create ~name:"m" ~kind:"M" in
  N.add_prop m "meth" "f";
  N.add_child outer ~group:"ms" m;
  check "outer visible" "HdA::f\n"
    (render "@foreach ms\n${cls}::${meth}\n@end ms" outer)

let test_foreach_shadowing () =
  (* The innermost node wins for a property defined at both levels. *)
  let outer = N.create ~name:"root" ~kind:"Root" in
  N.add_prop outer "v" "outer";
  let c = N.create ~name:"c" ~kind:"C" in
  N.add_prop c "v" "inner";
  N.add_child outer ~group:"g" c;
  check "shadow" "inner\n" (render "@foreach g\n${v}\n@end g" outer)

(* ---------------- conditionals ---------------- *)

let test_if_forms () =
  let n = node_with [ ("a", "x"); ("b", "") ] [] in
  check "eq" "yes\n" (render "@if ${a} == \"x\"\nyes\n@else\nno\n@fi" n);
  check "neq" "yes\n" (render "@if ${a} != \"y\"\nyes\n@fi" n);
  check "nonempty true" "yes\n" (render "@if ${a}\nyes\n@fi" n);
  check "nonempty false" "" (render "@if ${b}\nyes\n@fi" n);
  check "var vs var" "same\n" (render "@if ${a} == ${a}\nsame\n@fi" n);
  (* Fig. 9 writes the mathematical not-equals sign. *)
  check "unicode neq" "yes\n" (render "@if ${a} \xe2\x89\xa0 \"y\"\nyes\n@fi" n)

let test_if_uses_unmapped_value () =
  let maps = Template.Maps.of_list [ ("Shout", String.uppercase_ascii) ] in
  let n = node_with [ ("v", "x") ] [] in
  (* The substitution maps, the condition does not. *)
  check "unmapped cond" "X\n"
    (render ~maps "@foreach none\n@end none\n@if ${v} == \"x\"\n${v:Shout}\n@fi" n)

(* ---------------- maps ---------------- *)

let test_scoped_map () =
  let maps = Template.Maps.of_list [ ("Shout", String.uppercase_ascii) ] in
  let n = node_with [] [ ("xs", [ [ ("v", "a") ]; [ ("v", "b") ] ]) ] in
  check "-map" "A\nB\n" (render ~maps "@foreach xs -map v Shout\n${v}\n@end xs" n)

let test_inline_map_overrides () =
  let maps =
    Template.Maps.of_list
      [ ("Shout", String.uppercase_ascii); ("Quote", fun s -> "'" ^ s ^ "'") ]
  in
  let n = node_with [] [ ("xs", [ [ ("v", "a") ] ]) ] in
  check "inline beats scope" "A 'a'\n"
    (render ~maps "@foreach xs -map v Shout\n${v} ${v:Quote}\n@end xs" n)

let test_unknown_map () =
  let n = node_with [ ("v", "a") ] [] in
  (match render "${v:NoSuchMap}" n with
  | exception Template.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected unknown-map error")

(* ---------------- scope rules the binder makes static ---------------- *)

let test_nested_index () =
  let root = N.create ~name:"root" ~kind:"Root" in
  List.iteri
    (fun k o ->
      let outer = N.create ~name:o ~kind:"O" in
      N.add_prop outer "o" o;
      N.add_prop outer "k" (string_of_int k);
      List.iter
        (fun i ->
          let inner = N.create ~name:i ~kind:"I" in
          N.add_prop inner "i" i;
          N.add_child outer ~group:"is" inner)
        [ "x"; "y"; "z" ];
      N.add_child root ~group:"os" outer)
    [ "a"; "b" ];
  check "inner loop's index" "a0 x0/3\na0 y1/3\na0 z2/3\nb1 x0/3\nb1 y1/3\nb1 z2/3\n"
    (render "@foreach os\n@foreach is\n${o}${k} ${i}${index}/${count}\n@end is\n@end os"
       root)

let test_top_level_index () =
  (* Outside any @foreach a loop name is an ordinary root property. *)
  check "root property" "7 of 9\n"
    (render "${index} of ${count}" (node_with [ ("index", "7"); ("count", "9") ] []));
  match render "${index}" (node_with [] []) with
  | exception Template.Eval.Eval_error { line = 1; _ } -> ()
  | out -> Alcotest.failf "expected an unresolved root property, got %S" out

let test_inner_map_shadows () =
  let maps =
    Template.Maps.of_list
      [ ("Shout", String.uppercase_ascii); ("Quote", fun s -> "'" ^ s ^ "'") ]
  in
  let root = N.create ~name:"root" ~kind:"Root" in
  let outer = N.create ~name:"o" ~kind:"O" in
  N.add_prop outer "v" "out";
  let inner = N.create ~name:"i" ~kind:"I" in
  N.add_prop inner "v" "in";
  N.add_child outer ~group:"is" inner;
  N.add_child root ~group:"os" outer;
  check "inner -map wins" "OUT\n'in'\nOUT\n"
    (render ~maps
       "@foreach os -map v Shout\n${v}\n@foreach is -map v Quote\n${v}\n@end is\n${v}\n@end os"
       root)

let test_unknown_map_lazy () =
  let n = node_with [ ("v", "a"); ("flag", "") ] [ ("xs", [ [ ("w", "b") ] ]) ] in
  let src =
    "start\n@if ${flag}\n${v:No::Such}\n@fi\n\
     @foreach xs -map w No::Other\n@if ${flag}\n${w}\n@fi\n@end xs\nend"
  in
  check "never reached, never raised" "start\nend\n" (render src n);
  N.add_prop n "flag" "yes";
  (match render src n with
  | exception Template.Eval.Eval_error { line; message; _ } ->
      Alcotest.(check int) "inline miss line" 3 line;
      Alcotest.(check string) "inline miss message" "unknown map function \"No::Such\""
        message
  | out -> Alcotest.failf "expected Eval_error, got %S" out);
  match render "@foreach xs -map w No::Other\n\n${w}\n@end xs" n with
  | exception Template.Eval.Eval_error { line; message; _ } ->
      Alcotest.(check int) "-map miss line" 3 line;
      Alcotest.(check string) "-map miss message"
        "unknown map function \"No::Other\" for ${w}" message
  | out -> Alcotest.failf "expected Eval_error, got %S" out

(* ---------------- openfile ---------------- *)

let test_openfile () =
  let n = node_with [ ("base", "A") ] [] in
  let out =
    Template.Eval.render ~name:"<test>"
      "before\n@openfile ${base}.hh\nheader for ${base}\n@openfile ${base}.cc\nbody\n@openfile ${base}.hh\nmore header\n"
      n
  in
  check "stdout" "before\n" out.Template.Eval.stdout;
  Alcotest.(check (list (pair string string)))
    "files"
    [ ("A.hh", "header for A\nmore header\n"); ("A.cc", "body\n") ]
    out.Template.Eval.files

(* ---------------- parse errors ---------------- *)

let expect_parse_error src =
  match Template.Parse.parse ~name:"<t>" src with
  | exception Template.Parse.Template_error _ -> ()
  | _ -> Alcotest.failf "expected template parse error for %S" src

let test_parse_errors () =
  expect_parse_error "@foreach xs\nno end";
  expect_parse_error "@end xs";
  expect_parse_error "@if ${x}\nno fi";
  expect_parse_error "@else";
  expect_parse_error "@fi";
  expect_parse_error "@foreach xs\n@end ys";
  expect_parse_error "@if ${x} === \"y\"\n@fi";
  expect_parse_error "@wibble stuff";
  expect_parse_error "${unterminated";
  expect_parse_error "@foreach xs -map onlyvar\n@end xs";
  expect_parse_error "@foreach\n@end"

let test_comments_ignored () =
  check "comment" "a\n" (render "@# a comment\na\n@#another" (node_with [] []))

(* The exact template of Fig. 9's flavour: inheritance list with -ifMore
   and -map, defaults via @if — a miniature end-to-end check. *)
let test_fig9_flavour () =
  let maps = Template.Maps.of_list [ ("CPP::MapClassName", Mappings.Common.hd_name) ] in
  let root = N.create ~name:"" ~kind:"Root" in
  let iface = N.create ~name:"A" ~kind:"Interface" in
  N.add_prop iface "interfaceName" "Heidi::A";
  let b1 = N.create ~name:"S" ~kind:"Inherit" in
  N.add_prop b1 "inheritedName" "Heidi::S";
  let b2 = N.create ~name:"T" ~kind:"Inherit" in
  N.add_prop b2 "inheritedName" "Heidi::T";
  N.add_child iface ~group:"inheritedList" b1;
  N.add_child iface ~group:"inheritedList" b2;
  N.add_child root ~group:"interfaceList" iface;
  let tmpl =
    {|@foreach interfaceList -map interfaceName CPP::MapClassName
class ${interfaceName} :
@foreach inheritedList -ifMore ',' -map inheritedName CPP::MapClassName
        virtual public ${inheritedName} ${ifMore}
@end inheritedList
@end interfaceList|}
  in
  check "fig9"
    "class HdA :\n        virtual public HdS ,\n        virtual public HdT \n"
    (render ~maps tmpl root)

(* ---------------- the static checker on seeded-bad templates ----------

   The full checker test matrix lives in test_lint.ml; here we seed the
   exact defect classes the evaluator tests above exercise dynamically and
   assert the checker finds them without an EST. *)

let checker_codes src =
  let reporter = Idl.Diag.reporter () in
  ignore (Analysis.Tmpl_check.check_source reporter ~filename:"t.tmpl" src);
  List.map (fun d -> d.Idl.Diag.code) (Idl.Diag.diagnostics reporter)

let test_checker_seeded () =
  Alcotest.(check (list string)) "unbound var" [ "T202" ]
    (checker_codes "@foreach interfaceList\n${interfaceNam}\n@end interfaceList\n");
  Alcotest.(check (list string)) "unbalanced @if" [ "T201" ]
    (checker_codes "@if ${fileBase}\nx\n");
  Alcotest.(check (list string)) "mismatched @end" [ "T201" ]
    (checker_codes "@foreach interfaceList\nx\n@end methodList\n");
  Alcotest.(check (list string)) "several in one pass" [ "T203"; "T202"; "T205" ]
    (checker_codes
       "@foreach interfaceList -map interfaceName No::Fn\n\
        ${wrong}\n\
        @end interfaceList\n\
        @openfile ${alsoWrong}.hh\n")

let () =
  Alcotest.run "template"
    [
      ( "substitution",
        [
          Alcotest.test_case "basic" `Quick test_substitution;
          Alcotest.test_case "literal ${ escape" `Quick test_literal_escape;
          Alcotest.test_case "@@ escape" `Quick test_at_escape;
          Alcotest.test_case "line joining" `Quick test_line_joining;
          Alcotest.test_case "unresolved variable" `Quick test_unresolved_variable;
        ] );
      ( "scope",
        [
          Alcotest.test_case "nested index reads the inner loop" `Quick test_nested_index;
          Alcotest.test_case "top-level index is a root property" `Quick
            test_top_level_index;
          Alcotest.test_case "inner -map shadows outer" `Quick test_inner_map_shadows;
          Alcotest.test_case "unknown map raises when reached" `Quick
            test_unknown_map_lazy;
        ] );
      ( "foreach",
        [
          Alcotest.test_case "basic" `Quick test_foreach_basic;
          Alcotest.test_case "-ifMore" `Quick test_foreach_if_more;
          Alcotest.test_case "index/count/isFirst/isLast" `Quick test_foreach_bindings;
          Alcotest.test_case "empty group" `Quick test_foreach_empty_group;
          Alcotest.test_case "outer scope visible" `Quick test_foreach_nested_scope;
          Alcotest.test_case "inner shadows outer" `Quick test_foreach_shadowing;
        ] );
      ( "conditionals",
        [
          Alcotest.test_case "forms" `Quick test_if_forms;
          Alcotest.test_case "conditions use unmapped values" `Quick test_if_uses_unmapped_value;
        ] );
      ( "maps",
        [
          Alcotest.test_case "-map scoping" `Quick test_scoped_map;
          Alcotest.test_case "inline map overrides" `Quick test_inline_map_overrides;
          Alcotest.test_case "unknown map" `Quick test_unknown_map;
        ] );
      ( "output",
        [
          Alcotest.test_case "openfile" `Quick test_openfile;
          Alcotest.test_case "comments" `Quick test_comments_ignored;
        ] );
      ( "errors",
        [ Alcotest.test_case "parse errors" `Quick test_parse_errors ] );
      ( "checker",
        [ Alcotest.test_case "seeded defects" `Quick test_checker_seeded ] );
      ("fig9", [ Alcotest.test_case "Fig. 9 flavour" `Quick test_fig9_flavour ]);
    ]
