(* What the node builders need besides the entity: the spec, its
   variability test (built once per spec) and the memoized entity node
   constructor of [of_spec]. *)
type ctx = { spec : Sem.spec; is_variable : Ctype.t -> bool; mk : Sem.entity -> Node.t }

let bool_prop b = if b then "true" else ""

let type_name_of ty =
  match Ctype.flat_name ty with Some n -> n | None -> ""

let last qn = List.nth qn (List.length qn - 1)

let add_named_props node qn repo_id =
  Node.add_prop node "scopedName" (Sem.scoped_of_qname qn);
  Node.add_prop node "flatName" (Sem.flat_of_qname qn);
  Node.add_prop node "repoId" repo_id

(* The root kind of a type with aliases resolved: the value of the
   "typeKind" property templates branch on. *)
let kind_tag ty =
  match Ctype.resolve_alias ty with
  | Ctype.Void -> "void"
  | Ctype.Short -> "short"
  | Ctype.Long -> "long"
  | Ctype.Long_long -> "longlong"
  | Ctype.Unsigned_short -> "ushort"
  | Ctype.Unsigned_long -> "ulong"
  | Ctype.Unsigned_long_long -> "ulonglong"
  | Ctype.Float -> "float"
  | Ctype.Double -> "double"
  | Ctype.Boolean -> "boolean"
  | Ctype.Char -> "char"
  | Ctype.Octet -> "octet"
  | Ctype.Any -> "any"
  | Ctype.String _ -> "string"
  | Ctype.Sequence _ -> "sequence"
  | Ctype.Objref _ -> "objref"
  | Ctype.Struct _ -> "struct"
  | Ctype.Union _ -> "union"
  | Ctype.Enum _ -> "enum"
  | Ctype.Alias _ -> assert false

let add_type_props cx node ~prefix ty =
  let key base = if prefix = "" then base else prefix ^ String.capitalize_ascii base in
  Node.add_prop node (if prefix = "" then "type" else prefix ^ "Type") (Ctype.to_string ty);
  Node.add_prop node (key "typeName") (type_name_of ty);
  Node.add_prop node (key "typeKind") (kind_tag ty);
  Node.add_prop node (key "isVariable") (bool_prop (cx.is_variable ty));
  (* For sequence-rooted types, expose the element type so templates can
     derive iterator/element spellings (Fig. 3's HdSSequenceIter); [""]
     for any other type, so every typed node has the property. *)
  Node.add_prop node (key "seqElemType")
    (match Ctype.resolve_alias ty with
    | Ctype.Sequence (elem, _) -> Ctype.to_string elem
    | _ -> "")

let param_node cx (p : Sem.param) =
  let n = Node.create ~name:p.p_name ~kind:"Param" in
  Node.add_prop n "paramName" p.p_name;
  Node.add_prop n "paramMode"
    (match p.p_mode with
    | Idl.Ast.In -> "in"
    | Idl.Ast.Out -> "out"
    | Idl.Ast.Inout -> "inout"
    | Idl.Ast.Incopy -> "incopy");
  add_type_props cx n ~prefix:"" p.p_type;
  (* Fig. 9 tests [@if ${defaultParam} == ""], so absence is the empty
     string rather than a missing property. *)
  Node.add_prop n "defaultParam"
    (match p.p_default with Some v -> Value.to_string v | None -> "");
  n

let operation_node cx (op : Sem.operation) =
  let n = Node.create ~name:op.op_name ~kind:"Operation" in
  Node.add_prop n "methodName" op.op_name;
  add_type_props cx n ~prefix:"return" op.op_return;
  Node.add_prop n "isOneway" (bool_prop op.op_oneway);
  List.iter (fun p -> Node.add_child n ~group:"paramList" (param_node cx p)) op.op_params;
  List.iter
    (fun xqn ->
      let r = Node.create ~name:(last xqn) ~kind:"Raise" in
      Node.add_prop r "exceptionName" (Sem.flat_of_qname xqn);
      add_named_props r xqn (Sem.repo_id cx.spec xqn);
      Node.add_child n ~group:"raisesList" r)
    op.op_raises;
  n

let attribute_node cx (at : Sem.attribute) =
  let n = Node.create ~name:at.at_name ~kind:"Attribute" in
  Node.add_prop n "attributeName" at.at_name;
  add_type_props cx n ~prefix:"attribute" at.at_type;
  Node.add_prop n "attributeQualifier" (if at.at_readonly then "readonly" else "");
  n

let member_nodes cx fields =
  List.map
    (fun (f : Sem.field) ->
      let n = Node.create ~name:f.f_name ~kind:"Member" in
      Node.add_prop n "memberName" f.f_name;
      add_type_props cx n ~prefix:"" f.f_type;
      n)
    fields

(* Group name for an entity node inside its parent's kind groups. *)
let group_of_entity = function
  | Sem.E_module _ -> "moduleList"
  | Sem.E_interface _ -> "interfaceList"
  | Sem.E_struct _ -> "structList"
  | Sem.E_union _ -> "unionList"
  | Sem.E_enum _ -> "enumList"
  | Sem.E_alias _ -> "aliasList"
  | Sem.E_const _ -> "constList"
  | Sem.E_except _ -> "exceptionList"

let rec entity_node cx (e : Sem.entity) : Node.t =
  match e with
  | Sem.E_module (qn, members) ->
      let n = Node.create ~name:(last qn) ~kind:"Module" in
      Node.add_prop n "moduleName" (last qn);
      add_named_props n qn (Sem.repo_id cx.spec qn);
      attach_members cx n members;
      n
  | Sem.E_interface i -> interface_node cx i
  | Sem.E_struct s ->
      let n = Node.create ~name:(last s.s_qname) ~kind:"Struct" in
      Node.add_prop n "structName" (last s.s_qname);
      add_named_props n s.s_qname s.s_repo_id;
      List.iter
        (fun m -> Node.add_child n ~group:"memberList" m)
        (member_nodes cx s.s_fields);
      n
  | Sem.E_union u ->
      let n = Node.create ~name:(last u.u_qname) ~kind:"Union" in
      Node.add_prop n "unionName" (last u.u_qname);
      add_named_props n u.u_qname u.u_repo_id;
      Node.add_prop n "discType" (Ctype.to_string u.u_disc);
      Node.add_prop n "discTypeName" (type_name_of u.u_disc);
      List.iter
        (fun (c : Sem.union_case) ->
          let cn = Node.create ~name:c.uc_name ~kind:"Case" in
          Node.add_prop cn "caseName" c.uc_name;
          add_type_props cx cn ~prefix:"" c.uc_type;
          List.iter
            (fun label ->
              let ln = Node.create ~name:"" ~kind:"Label" in
              (match label with
              | Some v ->
                  Node.add_prop ln "labelValue" (Value.to_string v);
                  Node.add_prop ln "isDefault" ""
              | None ->
                  Node.add_prop ln "labelValue" "";
                  Node.add_prop ln "isDefault" "true");
              Node.add_child cn ~group:"labelList" ln)
            c.uc_labels;
          Node.add_child n ~group:"caseList" cn)
        u.u_cases;
      n
  | Sem.E_enum en ->
      let n = Node.create ~name:(last en.e_qname) ~kind:"Enum" in
      Node.add_prop n "enumName" (last en.e_qname);
      add_named_props n en.e_qname en.e_repo_id;
      List.iteri
        (fun idx m ->
          let mn = Node.create ~name:m ~kind:"EnumMember" in
          Node.add_prop mn "memberName" m;
          Node.add_prop mn "memberIndex" (string_of_int idx);
          Node.add_child n ~group:"memberList" mn)
        en.e_members;
      n
  | Sem.E_alias a ->
      let n = Node.create ~name:(last a.a_qname) ~kind:"Alias" in
      Node.add_prop n "aliasName" (last a.a_qname);
      add_named_props n a.a_qname a.a_repo_id;
      add_type_props cx n ~prefix:"" a.a_target;
      n
  | Sem.E_const c ->
      let n = Node.create ~name:(last c.c_qname) ~kind:"Const" in
      Node.add_prop n "constName" (last c.c_qname);
      add_named_props n c.c_qname c.c_repo_id;
      add_type_props cx n ~prefix:"" c.c_type;
      Node.add_prop n "value" (Value.to_string c.c_value);
      n
  | Sem.E_except x ->
      let n = Node.create ~name:(last x.x_qname) ~kind:"Exception" in
      Node.add_prop n "exceptionName" (last x.x_qname);
      add_named_props n x.x_qname x.x_repo_id;
      List.iter
        (fun m -> Node.add_child n ~group:"memberList" m)
        (member_nodes cx x.x_fields);
      n

and interface_node cx (i : Sem.interface) =
  let n = Node.create ~name:(last i.i_qname) ~kind:"Interface" in
  Node.add_prop n "interfaceName" (last i.i_qname);
  add_named_props n i.i_qname i.i_repo_id;
  (* Fig. 8 stores the first base under "Parent". *)
  Node.add_prop n "Parent"
    (match i.i_inherits with [] -> "" | b :: _ -> Sem.flat_of_qname b);
  let inherit_node qn =
    let b = Node.create ~name:(last qn) ~kind:"Inherit" in
    Node.add_prop b "inheritedName" (Sem.flat_of_qname qn);
    add_named_props b qn (Sem.repo_id cx.spec qn);
    b
  in
  List.iter
    (fun qn -> Node.add_child n ~group:"inheritedList" (inherit_node qn))
    i.i_inherits;
  let ancestors = Sem.ancestors cx.spec i in
  List.iter
    (fun (b : Sem.interface) ->
      Node.add_child n ~group:"allInheritedList" (inherit_node b.i_qname))
    ancestors;
  List.iter
    (fun op -> Node.add_child n ~group:"methodList" (operation_node cx op))
    i.i_ops;
  List.iter
    (fun at -> Node.add_child n ~group:"attributeList" (attribute_node cx at))
    i.i_attrs;
  (* The flattened lists reuse the ancestors' own operation and attribute
     nodes, base first, then this interface's: no node is built twice. *)
  let declaring = List.map (fun b -> cx.mk (Sem.E_interface b)) ancestors @ [ n ] in
  let flatten ~all ~own =
    List.iter
      (fun d -> List.iter (fun c -> Node.add_child n ~group:all c) (Node.group d own))
      declaring
  in
  flatten ~all:"allMethodList" ~own:"methodList";
  flatten ~all:"allAttributeList" ~own:"attributeList";
  attach_members cx n i.i_decls;
  n

(* Attach child entities to [parent], each in its per-kind group. Relative
   source order is preserved within each kind — the defining property of
   the EST (Fig. 7). *)
and attach_members cx parent member_qns =
  List.iter
    (fun qn ->
      match Sem.find cx.spec qn with
      | None -> ()
      | Some e -> Node.add_child parent ~group:(group_of_entity e) (cx.mk e))
    member_qns

(* Nodes are memoized by qualified name so that an entity declared inside a
   module is the *same* node in the module's local groups and in the root's
   flattened groups. *)
let of_spec (spec : Sem.spec) : Node.t =
  let memo : (Sem.qname, Node.t) Hashtbl.t = Hashtbl.create 64 in
  let is_variable = Sem.is_variable spec in
  let rec cx = { spec; is_variable; mk = memo_node }
  and memo_node e =
    let qn = Sem.entity_qname e in
    match Hashtbl.find_opt memo qn with
    | Some n -> n
    | None ->
        let n = entity_node cx e in
        Hashtbl.replace memo qn n;
        n
  in
  (* Build the module hierarchy first so memoized nodes carry their local
     groups... *)
  let root = Node.create ~name:"" ~kind:"Root" in
  List.iter
    (fun qn ->
      match Sem.find spec qn with
      | None -> ()
      | Some e -> ignore (memo_node e))
    spec.toplevel;
  (* ...then flatten every entity (document order, recursing into modules)
     into the root's per-kind groups. A template's [@foreach interfaceList]
     at the root therefore sees all interfaces, as in the paper's Fig. 9. *)
  List.iter
    (fun e -> Node.add_child root ~group:(group_of_entity e) (memo_node e))
    (Sem.all_entities spec);
  (* Direct top-level entities also get "top"-prefixed groups
     (topInterfaceList, topModuleList, ...) for mappings that must keep
     module members inside a namespace construct (corba-cpp). *)
  List.iter
    (fun qn ->
      match Sem.find spec qn with
      | None -> ()
      | Some e ->
          Node.add_child root
            ~group:("top" ^ String.capitalize_ascii (group_of_entity e))
            (memo_node e))
    spec.toplevel;
  root
