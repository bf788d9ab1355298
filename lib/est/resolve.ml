open Idl
module A = Ast

type kind =
  | K_module
  | K_interface
  | K_struct
  | K_union
  | K_enum
  | K_enum_member of Sem.qname  (** qname of the owning enum *)
  | K_alias
  | K_const
  | K_except

let with_article k =
  match k.[0] with
  | 'a' | 'e' | 'i' | 'o' | 'u' -> "an " ^ k
  | _ -> "a " ^ k

let kind_to_string = function
  | K_module -> "module"
  | K_interface -> "interface"
  | K_struct -> "struct"
  | K_union -> "union"
  | K_enum -> "enum"
  | K_enum_member _ -> "enum member"
  | K_alias -> "typedef"
  | K_const -> "constant"
  | K_except -> "exception"

type entry = {
  e_qname : Sem.qname;
  e_kind : kind;
  e_loc : Loc.t;
  mutable e_defined : bool;  (** false only for pending forward interfaces *)
}

type scope = {
  s_qname : Sem.qname;
  s_parent : scope option;
  s_table : (string, entry) Hashtbl.t;
  mutable s_bases : scope list;  (** inherited interface scopes *)
  mutable s_members : Sem.qname list;  (** declaration order, reversed *)
}

(* The AST definition behind a qname, together with the scope in which its
   own type references must be resolved. *)
type source =
  | S_interface of A.interface_decl * scope (* scope = the interface's own *)
  | S_struct of A.struct_decl * scope
  | S_union of A.union_decl * scope
  | S_enum of A.enum_decl * scope
  | S_alias of Ast.type_spec * string * Loc.t * scope
  | S_const of A.const_decl * scope
  | S_except of A.except_decl * scope

type env = {
  root : scope;
  sources : (Sem.qname, source) Hashtbl.t;
  entities : (Sem.qname, Sem.entity) Hashtbl.t;
  in_progress : (Sem.qname, unit) Hashtbl.t;
  prefixes : (Sem.qname, string) Hashtbl.t;
      (** #pragma prefix in force at each declaration. *)
  module_scopes : (Sem.qname, scope) Hashtbl.t;
  interface_scopes : (Sem.qname, scope) Hashtbl.t;
      (** Module and interface scopes, for re-opening and base-scope
          linking. *)
  reporter : Diag.reporter option;
      (** Where the recovery points report; [None] raises the first error. *)
  mutable warnings : Diag.t list;
}

let repo_id env qn =
  Sem.repo_id_of_qname
    ~prefix:(Option.value ~default:"" (Hashtbl.find_opt env.prefixes qn))
    qn

let register_module_scope env s = Hashtbl.replace env.module_scopes s.s_qname s
let register_interface_scope env s = Hashtbl.replace env.interface_scopes s.s_qname s

let find_module_scope env qn =
  match Hashtbl.find_opt env.module_scopes qn with
  | Some s -> s
  | None -> invalid_arg "find_module_scope"

let new_scope ?parent qname =
  { s_qname = qname; s_parent = parent; s_table = Hashtbl.create 16;
    s_bases = []; s_members = [] }

(* [member] is false for names that participate in lookup but are not
   standalone entities of the scope (enum members). *)
let scope_add ?(member = true) scope ~name ~kind ~loc =
  (match Hashtbl.find_opt scope.s_table name with
  | Some prev when not (prev.e_kind = K_interface && not prev.e_defined) ->
      Diag.error ~code:"E002"
        ~notes:[ (prev.e_loc, "previous declaration is here") ]
        ~loc "redefinition of %S (previously declared as %s)" name
        (with_article (kind_to_string prev.e_kind))
  | _ -> ());
  let qname = scope.s_qname @ [ name ] in
  let entry = { e_qname = qname; e_kind = kind; e_loc = loc; e_defined = true } in
  Hashtbl.replace scope.s_table name entry;
  if member then scope.s_members <- qname :: scope.s_members;
  entry

(* ---------------- pass 1: collect declarations ----------------

   [prefix] is the #pragma prefix in force; it flows left to right
   through a scope's definitions and does not escape the scope. Each
   declared entity records the prefix in force at its declaration. *)

let rec collect_definition env scope prefix (def : A.definition) : string =
  let record entry =
    if prefix <> "" then Hashtbl.replace env.prefixes entry.e_qname prefix
  in
  match def with
  | A.D_pragma_prefix (p, _) -> p
  | A.D_module (name, defs, loc) ->
      let sub =
        match Hashtbl.find_opt scope.s_table name with
        | Some { e_kind = K_module; e_qname; _ } ->
            (* Module re-opening: reuse the existing scope. *)
            find_module_scope env e_qname
        | Some prev ->
            Diag.error ~code:"E002" ~loc
              "redefinition of %S as a module (previously %s)" name
              (with_article (kind_to_string prev.e_kind))
        | None ->
            let _ = scope_add scope ~name ~kind:K_module ~loc in
            let sub = new_scope ~parent:scope (scope.s_qname @ [ name ]) in
            register_module_scope env sub;
            sub
      in
      (match Hashtbl.find_opt scope.s_table name with
      | Some entry when prefix <> "" -> Hashtbl.replace env.prefixes entry.e_qname prefix
      | _ -> ());
      ignore
        (List.fold_left
           (fun pfx d ->
             Diag.recover env.reporter ~default:pfx (fun () ->
                 collect_definition env sub pfx d))
           prefix defs);
      prefix
  | A.D_forward (name, loc) -> (
      match Hashtbl.find_opt scope.s_table name with
      | Some { e_kind = K_interface; _ } -> () (* repeat forward decl: ok *)
      | Some prev ->
          Diag.error ~code:"E002" ~loc
            "forward declaration of %S conflicts with a %s" name
            (kind_to_string prev.e_kind)
      | None ->
          let entry = scope_add scope ~name ~kind:K_interface ~loc in
          record entry;
          entry.e_defined <- false);
      prefix
  | A.D_interface i ->
      let entry =
        match Hashtbl.find_opt scope.s_table i.A.if_name with
        | Some ({ e_kind = K_interface; e_defined = false; _ } as e) ->
            e.e_defined <- true;
            (* Move to its definition position in declaration order. *)
            scope.s_members <-
              e.e_qname :: List.filter (fun q -> q <> e.e_qname) scope.s_members;
            e
        | Some prev ->
            Diag.error ~code:"E002" ~loc:i.A.if_loc
              "redefinition of interface %S (previously %s)" i.A.if_name
              (with_article (kind_to_string prev.e_kind))
        | None -> scope_add scope ~name:i.A.if_name ~kind:K_interface ~loc:i.A.if_loc
      in
      record entry;
      let sub = new_scope ~parent:scope entry.e_qname in
      register_interface_scope env sub;
      Hashtbl.replace env.sources entry.e_qname (S_interface (i, sub));
      List.iter (collect_export env sub prefix) i.A.if_exports;
      prefix
  | A.D_typedef t ->
      List.iter
        (fun name ->
          let entry = scope_add scope ~name ~kind:K_alias ~loc:t.A.td_loc in
          record entry;
          Hashtbl.replace env.sources entry.e_qname
            (S_alias (t.A.td_type, name, t.A.td_loc, scope)))
        t.A.td_names;
      prefix
  | A.D_struct s ->
      let entry = scope_add scope ~name:s.A.st_name ~kind:K_struct ~loc:s.A.st_loc in
      record entry;
      Hashtbl.replace env.sources entry.e_qname (S_struct (s, scope));
      prefix
  | A.D_union u ->
      let entry = scope_add scope ~name:u.A.un_name ~kind:K_union ~loc:u.A.un_loc in
      record entry;
      Hashtbl.replace env.sources entry.e_qname (S_union (u, scope));
      prefix
  | A.D_enum e ->
      let entry = scope_add scope ~name:e.A.en_name ~kind:K_enum ~loc:e.A.en_loc in
      record entry;
      Hashtbl.replace env.sources entry.e_qname (S_enum (e, scope));
      (* Enum members live in the enclosing scope (CORBA rule) but are not
         standalone entities of it. *)
      List.iter
        (fun m ->
          ignore
            (scope_add ~member:false scope ~name:m
               ~kind:(K_enum_member entry.e_qname) ~loc:e.A.en_loc))
        e.A.en_members;
      prefix
  | A.D_const c ->
      let entry = scope_add scope ~name:c.A.cn_name ~kind:K_const ~loc:c.A.cn_loc in
      record entry;
      Hashtbl.replace env.sources entry.e_qname (S_const (c, scope));
      prefix
  | A.D_except x ->
      let entry = scope_add scope ~name:x.A.ex_name ~kind:K_except ~loc:x.A.ex_loc in
      record entry;
      Hashtbl.replace env.sources entry.e_qname (S_except (x, scope));
      prefix

and collect_export env scope prefix (ex : A.export) =
  match ex with
  | A.Ex_op _ | A.Ex_attr _ -> () (* collected during interface resolution *)
  | A.Ex_typedef t -> ignore (collect_definition env scope prefix (A.D_typedef t))
  | A.Ex_struct s -> ignore (collect_definition env scope prefix (A.D_struct s))
  | A.Ex_union u -> ignore (collect_definition env scope prefix (A.D_union u))
  | A.Ex_enum e -> ignore (collect_definition env scope prefix (A.D_enum e))
  | A.Ex_const c -> ignore (collect_definition env scope prefix (A.D_const c))
  | A.Ex_except x -> ignore (collect_definition env scope prefix (A.D_except x))

(* ---------------- name lookup ---------------- *)

let rec lookup_in_scope scope name =
  match Hashtbl.find_opt scope.s_table name with
  | Some e -> Some e
  | None ->
      (* Inherited interface scopes. *)
      List.find_map (fun base -> lookup_in_scope base name) scope.s_bases

let rec lookup_upward scope name =
  match lookup_in_scope scope name with
  | Some e -> Some e
  | None -> (
      match scope.s_parent with
      | Some parent -> lookup_upward parent name
      | None -> None)

let scope_of_entry env entry =
  match entry.e_kind with
  | K_module -> Hashtbl.find_opt env.module_scopes entry.e_qname
  | K_interface -> Hashtbl.find_opt env.interface_scopes entry.e_qname
  | _ -> None

(* Resolve a scoped name starting from [scope]; returns its entry. *)
let resolve_name env scope (sn : A.scoped_name) =
  let fail () =
    Diag.error ~code:"E003" ~loc:sn.A.sn_loc "unresolved name %S"
      (A.scoped_name_to_string sn)
  in
  let first, rest =
    match sn.A.parts with [] -> fail () | p :: ps -> (p, ps)
  in
  let start =
    if sn.A.absolute then
      let rec root s = match s.s_parent with Some p -> root p | None -> s in
      lookup_in_scope (root scope) first
    else lookup_upward scope first
  in
  let rec navigate entry = function
    | [] -> entry
    | part :: parts -> (
        match scope_of_entry env entry with
        | None ->
            Diag.error ~code:"E011" ~loc:sn.A.sn_loc "%S is not a scope"
              (Sem.scoped_of_qname entry.e_qname)
        | Some s -> (
            match lookup_in_scope s part with
            | Some e -> navigate e parts
            | None -> fail ()))
  in
  match start with None -> fail () | Some entry -> navigate entry rest

(* ---------------- pass 2: resolution proper ---------------- *)

let rec resolve_entity env qn : Sem.entity =
  match Hashtbl.find_opt env.entities qn with
  | Some e -> e
  | None ->
      if Hashtbl.mem env.in_progress qn then (
        (* Anchor the cycle report at the entity's own declaration. *)
        let loc =
          match Hashtbl.find_opt env.sources qn with
          | Some (S_interface (i, _)) -> i.A.if_loc
          | Some (S_struct (st, _)) -> st.A.st_loc
          | Some (S_union (u, _)) -> u.A.un_loc
          | Some (S_enum (e, _)) -> e.A.en_loc
          | Some (S_alias (_, _, loc, _)) -> loc
          | Some (S_const (c, _)) -> c.A.cn_loc
          | Some (S_except (x, _)) -> x.A.ex_loc
          | None -> Loc.dummy
        in
        Diag.error ~code:"E004" ~loc "definition cycle involving %S"
          (Sem.scoped_of_qname qn));
      Hashtbl.replace env.in_progress qn ();
      (* [Fun.protect] so that an error escaping mid-resolution (recovered
         one level up in lint mode) does not leave [qn] marked in-progress
         and turn every later reference into a spurious cycle report. *)
      let e =
        Fun.protect
          ~finally:(fun () -> Hashtbl.remove env.in_progress qn)
          (fun () ->
            match Hashtbl.find_opt env.sources qn with
            | Some src -> resolve_source env qn src
            | None -> (
                (* A module, or a forward interface that was never defined. *)
                match Hashtbl.find_opt env.module_scopes qn with
                | Some s -> Sem.E_module (qn, List.rev s.s_members)
                | None ->
                    Diag.error ~code:"E003" ~loc:Loc.dummy
                      "interface %S was forward-declared but never defined"
                      (Sem.scoped_of_qname qn)))
      in
      Hashtbl.replace env.entities qn e;
      e

and resolve_source env qn = function
  | S_interface (i, own_scope) -> resolve_interface env qn i own_scope
  | S_struct (s, scope) ->
      let fields = resolve_fields env scope s.A.st_members in
      check_distinct ~loc:s.A.st_loc ~what:"struct member"
        (List.map (fun (f : Sem.field) -> f.f_name) fields);
      Sem.E_struct { s_qname = qn; s_repo_id = repo_id env qn; s_fields = fields }
  | S_union (u, scope) -> resolve_union env qn u scope
  | S_enum (e, _) ->
      check_distinct ~loc:e.A.en_loc ~what:"enum member" e.A.en_members;
      Sem.E_enum
        { e_qname = qn; e_repo_id = repo_id env qn; e_members = e.A.en_members }
  | S_alias (ty, _, loc, scope) ->
      let target = resolve_type env scope ~loc ty in
      (match target with
      | Ctype.Void ->
          Diag.error ~code:"E008" ~loc "cannot typedef 'void'"
      | _ -> ());
      Sem.E_alias
        { a_qname = qn; a_repo_id = repo_id env qn; a_target = target }
  | S_const (c, scope) ->
      let ty = resolve_type env scope ~loc:c.A.cn_loc c.A.cn_type in
      let value = eval_const env scope c.A.cn_value ~loc:c.A.cn_loc in
      let value = coerce_value env ~loc:c.A.cn_loc ty value in
      Sem.E_const
        { c_qname = qn; c_repo_id = repo_id env qn; c_type = ty; c_value = value }
  | S_except (x, scope) ->
      let fields = resolve_fields env scope x.A.ex_members in
      check_distinct ~loc:x.A.ex_loc ~what:"exception member"
        (List.map (fun (f : Sem.field) -> f.f_name) fields);
      Sem.E_except
        { x_qname = qn; x_repo_id = repo_id env qn; x_fields = fields }

and check_distinct ~loc ~what names =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        Diag.error ~code:"E009" ~loc "duplicate %s %S" what n
      else Hashtbl.add seen n ())
    names

and resolve_fields env scope members =
  List.concat_map
    (fun (m : A.struct_member) ->
      Diag.recover env.reporter ~default:[] (fun () ->
          let ty = resolve_type env scope ~loc:m.A.sm_loc m.A.sm_type in
          if ty = Ctype.Void then
            Diag.error ~code:"E008" ~loc:m.A.sm_loc
              "struct members cannot have type 'void'";
          List.map (fun name -> { Sem.f_type = ty; f_name = name }) m.A.sm_names))
    members

and resolve_interface env qn (i : A.interface_decl) own_scope =
  (* Resolve the inheritance list first and link base scopes so that body
     references can see inherited names. *)
  let bases =
    List.map
      (fun sn ->
        let entry = resolve_name env own_scope sn in
        (match entry.e_kind with
        | K_interface -> ()
        | k ->
            Diag.error ~code:"E004" ~loc:sn.A.sn_loc
              "interface %S cannot inherit from %s %S" i.A.if_name
              (kind_to_string k)
              (Sem.scoped_of_qname entry.e_qname));
        if not entry.e_defined then
          Diag.error ~code:"E004" ~loc:sn.A.sn_loc
            "interface %S inherits from forward-declared (undefined) interface %S"
            i.A.if_name
            (Sem.scoped_of_qname entry.e_qname);
        entry.e_qname)
      i.A.if_inherits
  in
  check_distinct ~loc:i.A.if_loc ~what:"inherited interface"
    (List.map Sem.scoped_of_qname bases);
  (* Force base resolution (detects inheritance cycles via in_progress). *)
  let base_entities =
    List.map
      (fun bqn ->
        match resolve_entity env bqn with
        | Sem.E_interface bi -> bi
        | _ ->
            Diag.error ~code:"E004" ~loc:i.A.if_loc "%S is not an interface"
              (Sem.scoped_of_qname bqn))
      bases
  in
  own_scope.s_bases <-
    List.filter_map (fun b -> Hashtbl.find_opt env.interface_scopes b) bases;
  (* Per-operation/per-attribute recovery: in lint mode a broken signature
     is reported and skipped, so the remaining exports are still checked. *)
  let ops =
    List.filter_map
      (function
        | A.Ex_op op ->
            Diag.recover env.reporter ~default:None (fun () ->
                Some (resolve_operation env own_scope op))
        | _ -> None)
      i.A.if_exports
  in
  let attrs =
    List.concat_map
      (function
        | A.Ex_attr at ->
            Diag.recover env.reporter ~default:[] (fun () ->
                let ty = resolve_type env own_scope ~loc:at.A.at_loc at.A.at_type in
                if ty = Ctype.Void then
                  Diag.error ~code:"E008" ~loc:at.A.at_loc
                    "attributes cannot have type 'void'";
                List.map
                  (fun name ->
                    { Sem.at_readonly = at.A.at_readonly; at_type = ty;
                      at_name = name })
                  at.A.at_names)
        | _ -> [])
      i.A.if_exports
  in
  (* Name clash checks: local ops/attrs vs each other and vs inherited. *)
  let local_names =
    List.map (fun (o : Sem.operation) -> o.op_name) ops
    @ List.map (fun (a : Sem.attribute) -> a.at_name) attrs
  in
  check_distinct ~loc:i.A.if_loc ~what:"operation or attribute" local_names;
  let mk_sem_interface () =
    {
      Sem.i_qname = qn;
      i_repo_id = repo_id env qn;
      i_inherits = bases;
      i_ops = ops;
      i_attrs = attrs;
      i_decls = List.rev own_scope.s_members;
    }
  in
  let self = mk_sem_interface () in
  let inherited_ops =
    List.concat_map (fun b -> Sem.all_operations (spec_view env) b) base_entities
  in
  let inherited_attrs =
    List.concat_map (fun b -> Sem.all_attributes (spec_view env) b) base_entities
  in
  let inherited_names =
    List.map (fun (o : Sem.operation) -> o.op_name) inherited_ops
    @ List.map (fun (a : Sem.attribute) -> a.at_name) inherited_attrs
  in
  List.iter
    (fun n ->
      if List.mem n inherited_names then
        Diag.error ~code:"E009" ~loc:i.A.if_loc
          "interface %S redefines inherited operation or attribute %S"
          i.A.if_name n)
    local_names;
  Sem.E_interface self

(* A read-only Sem.spec view over the entities resolved so far; used for
   inherited-name computations during resolution. *)
and spec_view env =
  { Sem.entities = env.entities; toplevel = []; prefixes = env.prefixes;
    warnings = [] }

and resolve_operation env scope (op : A.operation) : Sem.operation =
  let ret = resolve_type env scope ~loc:op.A.op_loc op.A.op_return in
  let params =
    List.map
      (fun (p : A.param) ->
        let ty = resolve_type env scope ~loc:p.A.p_loc p.A.p_type in
        if ty = Ctype.Void then
          Diag.error ~code:"E008" ~loc:p.A.p_loc
            "parameter %S cannot have type 'void'" p.A.p_name;
        if op.A.op_oneway && p.A.p_mode <> A.In && p.A.p_mode <> A.Incopy then
          Diag.error ~code:"E005" ~loc:p.A.p_loc
            "oneway operation %S cannot have 'out' or 'inout' parameters"
            op.A.op_name;
        let default =
          Option.map
            (fun e ->
              let v = eval_const env scope e ~loc:p.A.p_loc in
              coerce_value env ~loc:p.A.p_loc ty v)
            p.A.p_default
        in
        { Sem.p_mode = p.A.p_mode; p_type = ty; p_name = p.A.p_name;
          p_default = default })
      op.A.op_params
  in
  check_distinct ~loc:op.A.op_loc ~what:"parameter"
    (List.map (fun (p : Sem.param) -> p.p_name) params);
  if op.A.op_oneway && op.A.op_raises <> [] then
    Diag.error ~code:"E005" ~loc:op.A.op_loc
      "oneway operation %S cannot have a raises clause" op.A.op_name;
  let raises =
    List.map
      (fun sn ->
        let entry = resolve_name env scope sn in
        match entry.e_kind with
        | K_except -> entry.e_qname
        | k ->
            Diag.error ~code:"E011" ~loc:sn.A.sn_loc
              "raises clause of %S names %S which is a %s, not an exception"
              op.A.op_name
              (Sem.scoped_of_qname entry.e_qname)
              (kind_to_string k))
      op.A.op_raises
  in
  {
    Sem.op_oneway = op.A.op_oneway;
    op_return = ret;
    op_name = op.A.op_name;
    op_params = params;
    op_raises = raises;
  }

and resolve_union env qn (u : A.union_decl) scope =
  let disc = resolve_type env scope ~loc:u.A.un_loc u.A.un_disc in
  let disc_root = Ctype.resolve_alias disc in
  (match disc_root with
  | Ctype.Short | Ctype.Long | Ctype.Long_long | Ctype.Unsigned_short
  | Ctype.Unsigned_long | Ctype.Unsigned_long_long | Ctype.Char | Ctype.Boolean
  | Ctype.Enum _ ->
      ()
  | _ ->
      Diag.error ~code:"E007" ~loc:u.A.un_loc
        "union %S has an invalid discriminator type %s (must be an integer, \
         char, boolean or enum type)"
        u.A.un_name (Ctype.to_string disc));
  let seen_labels : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let seen_default = ref false in
  let cases =
    List.map
      (fun (c : A.union_case) ->
        let ty = resolve_type env scope ~loc:c.A.uc_loc c.A.uc_type in
        if ty = Ctype.Void then
          Diag.error ~code:"E008" ~loc:c.A.uc_loc
            "union case %S cannot have type 'void'" c.A.uc_name;
        let labels =
          List.map
            (function
              | A.Case_default ->
                  if !seen_default then
                    Diag.error ~code:"E007" ~loc:c.A.uc_loc
                      "union %S has more than one default case" u.A.un_name;
                  seen_default := true;
                  None
              | A.Case_value e ->
                  let v = eval_const env scope e ~loc:c.A.uc_loc in
                  let v = coerce_value env ~loc:c.A.uc_loc disc v in
                  let key = Value.to_string v in
                  if Hashtbl.mem seen_labels key then
                    Diag.error ~code:"E007" ~loc:c.A.uc_loc
                      "duplicate case label %s in union %S" key u.A.un_name;
                  Hashtbl.add seen_labels key ();
                  Some v)
            c.A.uc_labels
        in
        { Sem.uc_labels = labels; uc_type = ty; uc_name = c.A.uc_name })
      u.A.un_cases
  in
  check_distinct ~loc:u.A.un_loc ~what:"union case"
    (List.map (fun (c : Sem.union_case) -> c.uc_name) cases);
  Sem.E_union
    { u_qname = qn; u_repo_id = repo_id env qn; u_disc = disc; u_cases = cases }

(* ---------------- types ---------------- *)

and resolve_type env scope ~loc (ty : A.type_spec) : Ctype.t =
  match ty with
  | A.Void -> Ctype.Void
  | A.Short -> Ctype.Short
  | A.Long -> Ctype.Long
  | A.Long_long -> Ctype.Long_long
  | A.Unsigned_short -> Ctype.Unsigned_short
  | A.Unsigned_long -> Ctype.Unsigned_long
  | A.Unsigned_long_long -> Ctype.Unsigned_long_long
  | A.Float -> Ctype.Float
  | A.Double -> Ctype.Double
  | A.Boolean -> Ctype.Boolean
  | A.Char -> Ctype.Char
  | A.Octet -> Ctype.Octet
  | A.Any -> Ctype.Any
  | A.String b -> Ctype.String b
  | A.Sequence (elem, b) ->
      let e = resolve_type env scope ~loc elem in
      if e = Ctype.Void then
        Diag.error ~code:"E008" ~loc "sequences of 'void' are not allowed";
      Ctype.Sequence (e, b)
  | A.Named sn -> (
      let entry = resolve_name env scope sn in
      let flat = Sem.flat_of_qname entry.e_qname in
      match entry.e_kind with
      | K_interface -> Ctype.Objref flat
      | K_struct -> Ctype.Struct flat
      | K_union -> Ctype.Union flat
      | K_enum -> Ctype.Enum flat
      | K_alias -> (
          match resolve_entity env entry.e_qname with
          | Sem.E_alias a -> Ctype.Alias (flat, a.a_target)
          | _ -> assert false)
      | k ->
          Diag.error ~code:"E011" ~loc:sn.A.sn_loc "%S is a %s, not a type"
            (A.scoped_name_to_string sn) (kind_to_string k))

(* ---------------- constant expressions ---------------- *)

and eval_const env scope (e : A.const_expr) ~loc : Value.t =
  let module V = Value in
  let rec go (e : A.const_expr) : V.t =
    match e with
    | A.Int_lit i -> V.V_int i
    | A.Float_lit f -> V.V_float f
    | A.Bool_lit b -> V.V_bool b
    | A.Char_lit c -> V.V_char c
    | A.String_lit s -> V.V_string s
    | A.Name_ref sn -> (
        let entry = resolve_name env scope sn in
        match entry.e_kind with
        | K_enum_member enum_qn ->
            let member = List.nth entry.e_qname (List.length entry.e_qname - 1) in
            V.V_enum (Sem.flat_of_qname enum_qn, member)
        | K_const -> (
            match resolve_entity env entry.e_qname with
            | Sem.E_const c -> c.c_value
            | _ -> assert false)
        | k ->
            Diag.error ~code:"E011" ~loc:sn.A.sn_loc
              "%S is a %s and cannot appear in a constant expression"
              (A.scoped_name_to_string sn) (kind_to_string k))
    | A.Unary (op, x) -> (
        let v = go x in
        match (op, v) with
        | A.Pos, (V.V_int _ | V.V_float _) -> v
        | A.Neg, V.V_int i -> V.V_int (Int64.neg i)
        | A.Neg, V.V_float f -> V.V_float (-.f)
        | A.Bit_not, V.V_int i -> V.V_int (Int64.lognot i)
        | _ ->
            Diag.error ~code:"E006" ~loc "invalid operand %s for unary operator"
              (V.to_string v))
    | A.Binary (op, a, b) -> (
        let va = go a and vb = go b in
        match (op, va, vb) with
        | A.Add, V.V_int x, V.V_int y -> V.V_int (Int64.add x y)
        | A.Sub, V.V_int x, V.V_int y -> V.V_int (Int64.sub x y)
        | A.Mul, V.V_int x, V.V_int y -> V.V_int (Int64.mul x y)
        | A.Div, V.V_int _, V.V_int 0L ->
            Diag.error ~code:"E006" ~loc "division by zero"
        | A.Div, V.V_int x, V.V_int y -> V.V_int (Int64.div x y)
        | A.Mod, V.V_int _, V.V_int 0L ->
            Diag.error ~code:"E006" ~loc "modulo by zero"
        | A.Mod, V.V_int x, V.V_int y -> V.V_int (Int64.rem x y)
        | A.Or, V.V_int x, V.V_int y -> V.V_int (Int64.logor x y)
        | A.Xor, V.V_int x, V.V_int y -> V.V_int (Int64.logxor x y)
        | A.And, V.V_int x, V.V_int y -> V.V_int (Int64.logand x y)
        | A.Shift_left, V.V_int x, V.V_int y when y >= 0L && y < 64L ->
            V.V_int (Int64.shift_left x (Int64.to_int y))
        | A.Shift_right, V.V_int x, V.V_int y when y >= 0L && y < 64L ->
            V.V_int (Int64.shift_right_logical x (Int64.to_int y))
        | (A.Shift_left | A.Shift_right), V.V_int _, V.V_int y ->
            Diag.error ~code:"E006" ~loc "shift amount %Ld out of range [0, 63]" y
        | (A.Add | A.Sub | A.Mul | A.Div), _, _ -> (
            (* Promote mixed int/float arithmetic to float. *)
            let fl = function
              | V.V_float f -> f
              | V.V_int i -> Int64.to_float i
              | v ->
                  Diag.error ~code:"E006" ~loc
                    "invalid operand %s in arithmetic expression" (V.to_string v)
            in
            let x = fl va and y = fl vb in
            match op with
            | A.Add -> V.V_float (x +. y)
            | A.Sub -> V.V_float (x -. y)
            | A.Mul -> V.V_float (x *. y)
            | A.Div ->
                if y = 0. then Diag.error ~code:"E006" ~loc "division by zero"
                else V.V_float (x /. y)
            | _ -> assert false)
        | _ ->
            Diag.error ~code:"E006" ~loc
              "invalid operands %s and %s for binary operator" (V.to_string va)
              (V.to_string vb))
  in
  go e

(* Check that a value is compatible with a declared type and normalize it
   (e.g. int literal for a float constant). *)
and coerce_value env ~loc ty v =
  ignore env;
  let module V = Value in
  let fail () =
    Diag.error ~code:"E006" ~loc "value %s is not compatible with type %s"
      (V.to_string v) (Ctype.to_string ty)
  in
  let check_range lo hi i = if i < lo || i > hi then fail () else V.V_int i in
  match (Ctype.resolve_alias ty, v) with
  | Ctype.Short, V.V_int i -> check_range (-32768L) 32767L i
  | Ctype.Unsigned_short, V.V_int i -> check_range 0L 65535L i
  | Ctype.Long, V.V_int i -> check_range (-2147483648L) 2147483647L i
  | Ctype.Unsigned_long, V.V_int i -> check_range 0L 4294967295L i
  | Ctype.Long_long, V.V_int i -> V.V_int i
  | Ctype.Unsigned_long_long, V.V_int i ->
      if i < 0L then fail () else V.V_int i
  | Ctype.Octet, V.V_int i -> check_range 0L 255L i
  | Ctype.Float, V.V_float f -> V.V_float f
  | Ctype.Float, V.V_int i -> V.V_float (Int64.to_float i)
  | Ctype.Double, V.V_float f -> V.V_float f
  | Ctype.Double, V.V_int i -> V.V_float (Int64.to_float i)
  | Ctype.Boolean, V.V_bool b -> V.V_bool b
  | Ctype.Char, V.V_char c -> V.V_char c
  | Ctype.String bound, V.V_string s -> (
      match bound with
      | Some b when String.length s > b -> fail ()
      | _ -> V.V_string s)
  | Ctype.Enum ename, V.V_enum (e, _) -> if e = ename then v else fail ()
  | _ -> fail ()

(* ---------------- entry point ---------------- *)

let spec ?reporter (ast : A.spec) : Sem.spec =
  let root = new_scope [] in
  let env =
    {
      root;
      sources = Hashtbl.create 64;
      entities = Hashtbl.create 64;
      in_progress = Hashtbl.create 8;
      prefixes = Hashtbl.create 8;
      module_scopes = Hashtbl.create 16;
      interface_scopes = Hashtbl.create 16;
      reporter;
      warnings = [];
    }
  in
  (* Each top-of-scope definition and each entity resolution is a recovery
     point: in lint mode (given a reporter) a failure there is accumulated
     and the remaining declarations still get checked; without a reporter
     [Diag.recover] is transparent and the first error aborts, exactly as
     before. *)
  ignore
    (List.fold_left
       (fun pfx d ->
         Diag.recover reporter ~default:pfx (fun () ->
             collect_definition env root pfx d))
       "" ast);
  let toplevel = List.rev root.s_members in
  (* Resolve every declared entity (depth-first through modules). Forward
     declarations that were never completed have no source and are only
     warned about, never forced. *)
  let resolve qn =
    Diag.recover reporter ~default:() (fun () -> ignore (resolve_entity env qn))
  in
  let rec force qn =
    if Hashtbl.mem env.sources qn then resolve qn;
    match Hashtbl.find_opt env.module_scopes qn with
    | Some s ->
        resolve qn;
        List.iter force (List.rev s.s_members)
    | None -> ()
  in
  List.iter force toplevel;
  Hashtbl.iter (fun qn _ -> resolve qn) env.sources;
  (* Flag forward declarations that were never completed. *)
  let warn_undefined scope =
    Hashtbl.iter
      (fun name entry ->
        if (not entry.e_defined) && entry.e_kind = K_interface then
          env.warnings <-
            Diag.warning ~code:"W107" ~loc:entry.e_loc
              "interface %S was forward-declared but never defined" name
            :: env.warnings)
      scope.s_table
  in
  warn_undefined root;
  Hashtbl.iter (fun _ s -> warn_undefined s) env.module_scopes;
  (* Drop never-defined forwards from member lists so downstream passes see
     only resolvable entities. *)
  let resolvable qn = Hashtbl.mem env.entities qn in
  let toplevel = List.filter resolvable toplevel in
  Hashtbl.iter
    (fun qn e ->
      match e with
      | Sem.E_module (_, members) ->
          Hashtbl.replace env.entities qn
            (Sem.E_module (qn, List.filter resolvable members))
      | _ -> ())
    env.entities;
  { Sem.entities = env.entities; toplevel; prefixes = env.prefixes;
    warnings = env.warnings }
