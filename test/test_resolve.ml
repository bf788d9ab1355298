(* Semantic analysis tests: scoping, inheritance, constants, checks. *)

module S = Est.Sem
module C = Est.Ctype
module V = Est.Value

let analyze src = Est.Resolve.spec (Idl.Parser.parse_string src)

let expect_error name src =
  match analyze src with
  | exception Idl.Diag.Idl_error _ -> ()
  | _ -> Alcotest.failf "%s: expected a semantic error" name

let find_iface spec qn =
  match S.find_interface spec qn with
  | Some i -> i
  | None -> Alcotest.failf "interface %s not found" (String.concat "::" qn)

(* ---------------- resolution ---------------- *)

let test_repo_ids () =
  let spec = analyze "module Heidi { interface A { void f(); }; };" in
  let i = find_iface spec [ "Heidi"; "A" ] in
  Alcotest.(check string) "repo id" "IDL:Heidi/A:1.0" i.S.i_repo_id

let test_pragma_prefix () =
  (* #pragma prefix scopes the repository IDs of what follows. *)
  let spec =
    analyze
      {|interface Before { void f(); };
        #pragma prefix "nec.com"
        module Heidi {
          interface A { void g(); };
        };
        interface After { void h(); };|}
  in
  Alcotest.(check string) "before" "IDL:Before:1.0"
    (find_iface spec [ "Before" ]).S.i_repo_id;
  Alcotest.(check string) "inside module" "IDL:nec.com/Heidi/A:1.0"
    (find_iface spec [ "Heidi"; "A" ]).S.i_repo_id;
  Alcotest.(check string) "after" "IDL:nec.com/After:1.0"
    (find_iface spec [ "After" ]).S.i_repo_id

let test_pragma_prefix_scoped_to_module () =
  (* A pragma inside a module does not escape it. *)
  let spec =
    analyze
      {|module M {
          #pragma prefix "inner.org"
          interface I { void f(); };
        };
        interface Out { void g(); };|}
  in
  Alcotest.(check string) "inner" "IDL:inner.org/M/I:1.0"
    (find_iface spec [ "M"; "I" ]).S.i_repo_id;
  Alcotest.(check string) "outer unaffected" "IDL:Out:1.0"
    (find_iface spec [ "Out" ]).S.i_repo_id

let test_scoped_lookup () =
  (* Name resolution: current scope, then enclosing scopes. *)
  let spec =
    analyze
      {|module M {
          enum E { a, b };
          module N {
            interface I { void f(in E e); };
          };
        };|}
  in
  let i = find_iface spec [ "M"; "N"; "I" ] in
  match (List.hd i.S.i_ops).S.op_params with
  | [ { S.p_type = C.Enum "M_E"; _ } ] -> ()
  | _ -> Alcotest.fail "E did not resolve to M::E"

let test_absolute_names () =
  let spec =
    analyze
      {|enum E { x };
        module M {
          enum E { y };
          interface I { void f(in ::E a, in E b); };
        };|}
  in
  let i = find_iface spec [ "M"; "I" ] in
  match (List.hd i.S.i_ops).S.op_params with
  | [ { S.p_type = C.Enum "E"; _ }; { S.p_type = C.Enum "M_E"; _ } ] -> ()
  | _ -> Alcotest.fail "absolute / relative names resolved wrongly"

let test_module_reopening () =
  let spec =
    analyze
      {|module M { enum E { a }; };
        module M { interface I { void f(in E e); }; };|}
  in
  ignore (find_iface spec [ "M"; "I" ])

let test_inherited_scope_lookup () =
  (* Names from inherited interfaces are visible in the derived body. *)
  let spec =
    analyze
      {|interface Base { typedef long Money; };
        interface Derived : Base { void pay(in Money amount); };|}
  in
  let i = find_iface spec [ "Derived" ] in
  match (List.hd i.S.i_ops).S.op_params with
  | [ { S.p_type = C.Alias ("Base_Money", C.Long); _ } ] -> ()
  | _ -> Alcotest.fail "inherited typedef not visible"

let test_forward_interface_as_type () =
  let spec =
    analyze
      {|module H {
          interface S;
          typedef sequence<S> SSeq;
          interface S { void ping(); };
        };|}
  in
  match S.find spec [ "H"; "SSeq" ] with
  | Some (S.E_alias { a_target = C.Sequence (C.Objref "H_S", None); _ }) -> ()
  | _ -> Alcotest.fail "forward interface did not resolve in sequence"

let test_inheritance_closure () =
  let spec =
    analyze
      {|interface A { void fa(); };
        interface B : A { void fb(); };
        interface C : A { void fc(); };
        interface D : B, C { void fd(); };|}
  in
  let d = find_iface spec [ "D" ] in
  let ancestors = S.ancestors spec d in
  Alcotest.(check (list string))
    "ancestors (depth-first, deduplicated)" [ "A"; "B"; "C" ]
    (List.map (fun (i : S.interface) -> String.concat "::" i.S.i_qname) ancestors);
  Alcotest.(check (list string))
    "all operations, base first" [ "fa"; "fb"; "fc"; "fd" ]
    (List.map (fun (o : S.operation) -> o.S.op_name) (S.all_operations spec d))

let test_typedef_chains () =
  let spec =
    analyze
      {|typedef long T1;
        typedef T1 T2;
        typedef T2 T3;|}
  in
  match S.find spec [ "T3" ] with
  | Some (S.E_alias { a_target = C.Alias ("T2", C.Alias ("T1", C.Long)); _ }) -> ()
  | _ -> Alcotest.fail "typedef chain broken"

(* ---------------- constants ---------------- *)

let const_value spec name =
  match S.find spec [ name ] with
  | Some (S.E_const c) -> c.S.c_value
  | _ -> Alcotest.failf "constant %s not found" name

let test_const_arith () =
  let spec =
    analyze
      {|const long A = 2 + 3 * 4;
        const long B = (2 + 3) * 4;
        const long C = 1 << 10;
        const long D = 0xFF & 0x0F;
        const long E = 7 % 3;
        const long F = -5;
        const long G = ~0 & 0xFF;
        const double H = 1 / 2.0;
        const long I2 = A + B;|}
  in
  let check name want =
    Alcotest.(check string) name (V.to_string want) (V.to_string (const_value spec name))
  in
  check "A" (V.V_int 14L);
  check "B" (V.V_int 20L);
  check "C" (V.V_int 1024L);
  check "D" (V.V_int 15L);
  check "E" (V.V_int 1L);
  check "F" (V.V_int (-5L));
  check "G" (V.V_int 255L);
  check "H" (V.V_float 0.5);
  check "I2" (V.V_int 34L)

let test_const_enum_and_refs () =
  let spec =
    analyze
      {|module M {
          enum Color { red, green };
          const Color FAV = green;
          const long BASE = 10;
          const long DERIVED = BASE * 2;
        };|}
  in
  (match S.find spec [ "M"; "FAV" ] with
  | Some (S.E_const { c_value = V.V_enum ("M_Color", "green"); _ }) -> ()
  | _ -> Alcotest.fail "enum constant");
  match S.find spec [ "M"; "DERIVED" ] with
  | Some (S.E_const { c_value = V.V_int 20L; _ }) -> ()
  | _ -> Alcotest.fail "constant reference"

let test_default_param_values () =
  let spec =
    analyze
      {|module H {
          enum Status { Start, Stop };
          interface A {
            void p(in long l = 0);
            void q(in Status s = H::Start);
            void r(in boolean b = TRUE);
            void s(in string msg = "hi");
          };
        };|}
  in
  let i = find_iface spec [ "H"; "A" ] in
  let defaults =
    List.map
      (fun (o : S.operation) ->
        match (List.hd o.S.op_params).S.p_default with
        | Some v -> V.to_string v
        | None -> "<none>")
      i.S.i_ops
  in
  Alcotest.(check (list string)) "defaults"
    [ "int:0"; "enum:H_Status:Start"; "bool:true"; "string:hi" ]
    defaults

(* ---------------- error checks ---------------- *)

let test_errors () =
  expect_error "unresolved name" "interface I { void f(in Nope x); };";
  expect_error "duplicate definition" "enum E { a }; enum E { b };";
  expect_error "duplicate enum member in scope" "enum E { a }; enum F { a };";
  expect_error "inherit from non-interface" "enum E { a }; interface I : E { };";
  expect_error "inherit from undefined forward"
    "interface F; interface I : F { };";
  expect_error "inheritance cycle handled"
    "interface A : B { }; interface B : A { };";
  expect_error "duplicate op" "interface I { void f(); void f(in long x); };";
  expect_error "redefine inherited op"
    "interface A { void f(); }; interface B : A { void f(); };";
  expect_error "raises non-exception"
    "enum E { a }; interface I { void f() raises (E); };";
  expect_error "const range" "const short K = 70000;";
  expect_error "const type mismatch" "const long K = \"hi\";";
  expect_error "const div by zero" "const long K = 1 / 0;";
  expect_error "bad shift" "const long K = 1 << 64;";
  expect_error "default type mismatch"
    "interface I { void f(in long x = \"s\"); };";
  expect_error "default enum mismatch"
    "enum E { a }; enum F { b }; interface I { void f(in E x = b); };";
  expect_error "oneway out param already in parser" "interface I { oneway void f(out long x); };";
  expect_error "union bad discriminator"
    "union U switch (float) { case 1: long a; };";
  expect_error "union duplicate label"
    "union U switch (long) { case 1: long a; case 1: long b; };";
  expect_error "union two defaults"
    "union U switch (long) { default: long a; default: long b; };";
  expect_error "void struct member" "struct S { void v; };";
  expect_error "typedef void" "typedef void T;";
  expect_error "string bound overflow in const" "const string<2> K = \"abc\";"

let test_is_variable () =
  let spec =
    analyze
      {|struct Fixed { long a; double b; };
        struct Var { string s; };
        struct Nested { Fixed f; Var v; };|}
  in
  Alcotest.(check bool) "fixed" false (S.is_variable spec (C.Struct "Fixed"));
  Alcotest.(check bool) "var" true (S.is_variable spec (C.Struct "Var"));
  Alcotest.(check bool) "nested" true (S.is_variable spec (C.Struct "Nested"));
  Alcotest.(check bool) "long" false (S.is_variable spec C.Long);
  Alcotest.(check bool) "string" true (S.is_variable spec (C.String None))

(* Aggregates are looked up by flat name, so the answer for a name that
   two aggregates share is the OR of both; aliases, union arms and
   structs nesting structs are followed. *)
let test_is_variable_shapes () =
  let spec =
    analyze
      {|module A { struct B_C { long x; double y; }; };
        module A_B { struct C { string s; }; };
        module X { struct Y_Z { long a; }; };
        module X_Y { struct Z { X::Y_Z inner; }; };
        struct Fixed { long a; };
        struct Var { string s; };
        typedef Var VarAlias;
        typedef Fixed FixedAlias;
        struct ViaAlias { VarAlias v; };
        struct ViaFixedAlias { FixedAlias f; };
        union VarArm switch (long) { case 1: ViaAlias v; case 2: long n; };
        union FixedArms switch (long) { case 1: Fixed f; default: octet o; };
        struct HoldsUnion { FixedArms u; };
        struct Self { long n; sequence<Self> kids; };|}
  in
  let check what expected ty = Alcotest.(check bool) what expected (S.is_variable spec ty) in
  check "colliding flat name A_B_C: variable wins" true (C.Struct "A_B_C");
  (* X_Y::Z holds X::Y_Z, whose flat name is its own: the cycle is cut. *)
  check "self-colliding flat name X_Y_Z: cycle cut, fixed" false (C.Struct "X_Y_Z");
  check "alias of a variable struct" true (C.Alias ("VarAlias", C.Struct "Var"));
  check "alias of a fixed struct" false (C.Alias ("FixedAlias", C.Struct "Fixed"));
  check "struct nesting through an alias" true (C.Struct "ViaAlias");
  check "struct nesting a fixed alias" false (C.Struct "ViaFixedAlias");
  check "union with a variable struct arm" true (C.Union "VarArm");
  check "union with fixed arms" false (C.Union "FixedArms");
  check "struct holding a fixed union" false (C.Struct "HoldsUnion");
  (* The resolver accepts a struct holding an anonymous sequence of
     itself; only some mappings reject it. *)
  check "struct holding sequence<Self>" true (C.Struct "Self");
  check "sequence<Self>" true (C.Sequence (C.Struct "Self", None))

let test_warnings_for_dangling_forward () =
  let spec = analyze "interface Never;" in
  Alcotest.(check bool) "warned" true (spec.S.warnings <> [])

(* Each domain resolves its own specs at the same time as the other:
   every spec reopens a module and inherits across it, so a scope table
   shared between the two would lose entries under the other's reset. *)
let test_resolve_across_domains () =
  let worker d () =
    for i = 1 to 300 do
      let m = Printf.sprintf "M%d_%d" d i in
      let spec =
        analyze
          (Printf.sprintf
             {|module %s { typedef long T%d; interface Base { void f(); }; };
               module %s { interface Derived : %s::Base { void g(in T%d t); }; };|}
             m i m m i)
      in
      let derived = find_iface spec [ m; "Derived" ] in
      if derived.S.i_inherits <> [ [ m; "Base" ] ] then
        Alcotest.failf "domain %d spec %d: wrong bases" d i;
      match (List.hd derived.S.i_ops).S.op_params with
      | [ { S.p_type = C.Alias (name, C.Long); _ } ]
        when name = Printf.sprintf "%s_T%d" m i -> ()
      | _ -> Alcotest.failf "domain %d spec %d: wrong parameter type" d i
    done
  in
  List.map (fun d -> Domain.spawn (worker d)) [ 1; 2 ] |> List.iter Domain.join

let () =
  Alcotest.run "resolve"
    [
      ( "resolution",
        [
          Alcotest.test_case "repository ids" `Quick test_repo_ids;
          Alcotest.test_case "#pragma prefix" `Quick test_pragma_prefix;
          Alcotest.test_case "#pragma prefix module-scoped" `Quick
            test_pragma_prefix_scoped_to_module;
          Alcotest.test_case "scoped lookup" `Quick test_scoped_lookup;
          Alcotest.test_case "absolute names" `Quick test_absolute_names;
          Alcotest.test_case "module reopening" `Quick test_module_reopening;
          Alcotest.test_case "inherited scope lookup" `Quick test_inherited_scope_lookup;
          Alcotest.test_case "forward interface as type" `Quick test_forward_interface_as_type;
          Alcotest.test_case "inheritance closure" `Quick test_inheritance_closure;
          Alcotest.test_case "typedef chains" `Quick test_typedef_chains;
          Alcotest.test_case "across domains" `Quick test_resolve_across_domains;
        ] );
      ( "constants",
        [
          Alcotest.test_case "arithmetic" `Quick test_const_arith;
          Alcotest.test_case "enum and const refs" `Quick test_const_enum_and_refs;
          Alcotest.test_case "default parameter values" `Quick test_default_param_values;
        ] );
      ( "checks",
        [
          Alcotest.test_case "semantic errors" `Quick test_errors;
          Alcotest.test_case "variable-length computation" `Quick test_is_variable;
          Alcotest.test_case "variable-length: aliases, unions, collisions" `Quick
            test_is_variable_shapes;
          Alcotest.test_case "dangling forward warns" `Quick test_warnings_for_dangling_forward;
        ] );
    ]
