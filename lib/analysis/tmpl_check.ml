(** Static checker for code-generation templates.

    Validates a template against the EST property environment — the node
    kinds {!Est.Build} produces and the properties/groups each kind
    defines (the paper's Fig. 8 schema) — without evaluating it against
    any IDL. The evaluator ({!Template.Eval}) only discovers an unbound
    [${var}] or unknown map function when it reaches that line for some
    input, possibly after writing half an output file; the checker finds
    every such defect up front, which is what makes user-supplied
    templates (the paper's whole point) safe to install.

    The checker has no scope rules of its own: {!Template.Bind}, the
    pass the evaluator also runs, lists every property use, [@foreach]
    and unknown map function with its enclosing group path, and the
    checker replays that list against the schema.

    Checks: T201 parse errors, T202 unbound variables, T203 unknown map
    functions, T204 unknown [@foreach] groups, T205 unbound variables in
    [@openfile] names. *)

module Diag = Idl.Diag

(* ---------------- The EST schema ----------------

   One row per node kind: the properties the kind defines and its child
   groups (group name -> child kind). Derived from Est.Build; test_lint
   builds the EST of every shipped IDL file and checks each node against
   its row. *)

type kind_info = {
  props : string list;
  groups : (string * string) list;
}

(* Properties shared by every named entity node. *)
let named = [ "scopedName"; "flatName"; "repoId" ]

(* add_type_props with the given prefix ("" / "return" / "attribute"). *)
let typed prefix =
  let key base =
    if prefix = "" then base else prefix ^ String.capitalize_ascii base
  in
  [
    (if prefix = "" then "type" else prefix ^ "Type");
    key "typeName"; key "typeKind"; key "isVariable"; key "seqElemType";
  ]

(* Groups attach_members can create on a container node. *)
let entity_groups =
  [
    ("moduleList", "Module");
    ("interfaceList", "Interface");
    ("structList", "Struct");
    ("unionList", "Union");
    ("enumList", "Enum");
    ("aliasList", "Alias");
    ("constList", "Const");
    ("exceptionList", "Exception");
  ]

let schema : (string * kind_info) list =
  [
    ( "Root",
      {
        props = [ "fileBase"; "fileName" ];
        groups =
          entity_groups
          @ List.map
              (fun (g, k) -> ("top" ^ String.capitalize_ascii g, k))
              entity_groups;
      } );
    ( "Module",
      { props = ("moduleName" :: named); groups = entity_groups } );
    ( "Interface",
      {
        props = [ "interfaceName"; "Parent" ] @ named;
        groups =
          [
            ("inheritedList", "Inherit");
            ("allInheritedList", "Inherit");
            ("methodList", "Operation");
            ("allMethodList", "Operation");
            ("attributeList", "Attribute");
            ("allAttributeList", "Attribute");
          ]
          @ entity_groups;
      } );
    ("Inherit", { props = ("inheritedName" :: named); groups = [] });
    ( "Operation",
      {
        props = [ "methodName"; "isOneway" ] @ typed "return";
        groups = [ ("paramList", "Param"); ("raisesList", "Raise") ];
      } );
    ( "Param",
      { props = [ "paramName"; "paramMode"; "defaultParam" ] @ typed ""; groups = [] } );
    ("Raise", { props = ("exceptionName" :: named); groups = [] });
    ( "Attribute",
      {
        props = [ "attributeName"; "attributeQualifier" ] @ typed "attribute";
        groups = [];
      } );
    ( "Struct",
      {
        props = ("structName" :: named);
        groups = [ ("memberList", "Member") ];
      } );
    ("Member", { props = ("memberName" :: typed ""); groups = [] });
    ( "Union",
      {
        props = [ "unionName"; "discType"; "discTypeName" ] @ named;
        groups = [ ("caseList", "Case") ];
      } );
    ( "Case",
      {
        props = ("caseName" :: typed "");
        groups = [ ("labelList", "Label") ];
      } );
    ("Label", { props = [ "labelValue"; "isDefault" ]; groups = [] });
    ( "Enum",
      {
        props = ("enumName" :: named);
        groups = [ ("memberList", "EnumMember") ];
      } );
    ("EnumMember", { props = [ "memberName"; "memberIndex" ]; groups = [] });
    ("Alias", { props = (("aliasName" :: named) @ typed ""); groups = [] });
    ( "Const",
      { props = (("constName" :: named) @ [ "value" ]) @ typed ""; groups = [] } );
    ( "Exception",
      {
        props = ("exceptionName" :: named);
        groups = [ ("memberList", "Member") ];
      } );
  ]

let kind_info kind = List.assoc_opt kind schema

(* The kinds a group path reaches from the root, innermost first. An
   unknown group reaches the wildcard kind "?", which has every property
   and every group, so one bad @foreach yields a single T204 rather than
   a cascade of T202/T204 in its body. *)
let rec kinds = function
  | [] -> [ "Root" ]
  | group :: outer ->
      let ks = kinds outer in
      let parent = kind_info (List.hd ks) in
      let child = Option.bind parent (fun i -> List.assoc_opt group i.groups) in
      Option.value ~default:"?" child :: ks

(* ---------------- The checker ---------------- *)

(* Replay the binder's uses against the schema. *)
let check_ast ?maps reporter ~filename (tmpl : Template.Ast.t) =
  let maps = match maps with Some m -> m | None -> Mappings.Registry.all_maps () in
  let err ~code ~line fmt =
    Printf.ksprintf
      (fun message ->
        Diag.report reporter
          (Diag.make ~code ~severity:Diag.Error
             ~loc:(Idl.Loc.make ~file:filename ~line ~col:0) message))
      fmt
  in
  List.iter
    (function
      | Template.Bind.Prop_use { name; line; openfile; scope } ->
          let ks = kinds scope in
          let defines k =
            match kind_info k with Some i -> List.mem name i.props | None -> true
          in
          if not (List.exists defines ks) then
            err ~code:(if openfile then "T205" else "T202") ~line
              "unbound variable ${%s} (node stack: %s)" name
              (String.concat " > " (List.rev ks))
      | Template.Bind.Group_use { group; line; scope } -> (
          (* @foreach searches the current node only (no outward walk). *)
          let kind = List.hd (kinds scope) in
          match kind_info kind with
          | Some { groups; _ } when not (List.mem_assoc group groups) ->
              err ~code:"T204" ~line
                "unknown group %S in @foreach (node kind %S defines: %s)" group kind
                (if groups = [] then "no groups"
                 else String.concat ", " (List.map fst groups))
          | _ -> ())
      | Template.Bind.Map_miss { fn; var; line } ->
          err ~code:"T203" ~line "unknown map function %S for ${%s}" fn var)
    (Template.Bind.bind ~maps tmpl).uses

(* Parse (T201 on failure) then check. Returns [true] when the template
   at least parsed. *)
let check_source ?maps reporter ~filename src =
  match Template.Parse.parse ~name:filename src with
  | tmpl ->
      check_ast ?maps reporter ~filename tmpl;
      true
  | exception Template.Parse.Template_error { line; message; _ } ->
      Diag.report reporter
        (Diag.make ~code:"T201" ~severity:Diag.Error
           ~loc:(Idl.Loc.make ~file:filename ~line ~col:0)
           (Printf.sprintf "template syntax error: %s" message));
      false

let check_file ?maps reporter path =
  let src = In_channel.with_open_bin path In_channel.input_all in
  check_source ?maps reporter ~filename:path src
