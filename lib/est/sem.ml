(** The semantic model: the output of name resolution and type checking.

    Entities are keyed by their qualified name (e.g. [["Heidi"; "A"]]).
    Every type reference has been reduced to a {!Ctype.t} and every
    constant expression folded to a {!Value.t}. Declaration order is
    preserved both at top level and within each container, because
    generated code (and the EST) must follow source order within each
    kind group. *)

type qname = string list

let flat_of_qname qn = String.concat "_" qn
let scoped_of_qname qn = String.concat "::" qn

(** Repository IDs follow the OMG format used throughout the paper:
    [IDL:Heidi/A:1.0]. A [#pragma prefix] in force at the declaration
    prepends its value: [IDL:nec.com/Heidi/A:1.0]. *)
let repo_id_of_qname ?(prefix = "") qn =
  let path = String.concat "/" qn in
  "IDL:" ^ (if prefix = "" then path else prefix ^ "/" ^ path) ^ ":1.0"



type param = {
  p_mode : Idl.Ast.param_mode;
  p_type : Ctype.t;
  p_name : string;
  p_default : Value.t option;
}

type operation = {
  op_oneway : bool;
  op_return : Ctype.t;
  op_name : string;
  op_params : param list;
  op_raises : qname list;  (** Resolved exception names. *)
}

type attribute = { at_readonly : bool; at_type : Ctype.t; at_name : string }

type field = { f_type : Ctype.t; f_name : string }

type union_case = {
  uc_labels : Value.t option list;  (** [None] is the [default] label. *)
  uc_type : Ctype.t;
  uc_name : string;
}

type interface = {
  i_qname : qname;
  i_repo_id : string;
  i_inherits : qname list;  (** Direct bases, in declaration order. *)
  i_ops : operation list;
  i_attrs : attribute list;
  i_decls : qname list;  (** Nested type/const/exception declarations. *)
}

type struct_t = { s_qname : qname; s_repo_id : string; s_fields : field list }

type union_t = {
  u_qname : qname;
  u_repo_id : string;
  u_disc : Ctype.t;
  u_cases : union_case list;
}

type enum_t = { e_qname : qname; e_repo_id : string; e_members : string list }

type alias_t = { a_qname : qname; a_repo_id : string; a_target : Ctype.t }

type const_t = {
  c_qname : qname;
  c_repo_id : string;
  c_type : Ctype.t;
  c_value : Value.t;
}

type except_t = { x_qname : qname; x_repo_id : string; x_fields : field list }

type entity =
  | E_module of qname * qname list  (** Name and ordered member qnames. *)
  | E_interface of interface
  | E_struct of struct_t
  | E_union of union_t
  | E_enum of enum_t
  | E_alias of alias_t
  | E_const of const_t
  | E_except of except_t

let entity_qname = function
  | E_module (qn, _) -> qn
  | E_interface i -> i.i_qname
  | E_struct s -> s.s_qname
  | E_union u -> u.u_qname
  | E_enum e -> e.e_qname
  | E_alias a -> a.a_qname
  | E_const c -> c.c_qname
  | E_except x -> x.x_qname

(** A fully analyzed IDL specification. *)
type spec = {
  entities : (qname, entity) Hashtbl.t;
  toplevel : qname list;  (** Top-level entities in declaration order. *)
  prefixes : (qname, string) Hashtbl.t;
      (** The [#pragma prefix] in force at each entity's declaration. *)
  warnings : Idl.Diag.t list;
}

let prefix_of spec qn =
  Option.value ~default:"" (Hashtbl.find_opt spec.prefixes qn)

(** The repository ID of any declared entity, honouring pragma prefixes. *)
let repo_id spec qn = repo_id_of_qname ~prefix:(prefix_of spec qn) qn

let find spec qn = Hashtbl.find_opt spec.entities qn

let find_interface spec qn =
  match find spec qn with Some (E_interface i) -> Some i | _ -> None

let find_exception spec qn =
  match find spec qn with Some (E_except x) -> Some x | _ -> None

(** [all_interfaces spec] lists every interface in declaration order
    (document order, recursing into modules). *)
let all_entities spec =
  let rec walk qn acc =
    match Hashtbl.find_opt spec.entities qn with
    | None -> acc
    | Some (E_module (_, members) as e) ->
        List.fold_left (fun acc m -> walk m acc) (e :: acc) members
    | Some e -> e :: acc
  in
  List.rev (List.fold_left (fun acc qn -> walk qn acc) [] spec.toplevel)

let all_interfaces spec =
  List.filter_map
    (function E_interface i -> Some i | _ -> None)
    (all_entities spec)

(** Transitive inheritance closure of an interface: all ancestors,
    depth-first in declaration order, each listed once, excluding the
    interface itself. *)
let ancestors spec (i : interface) =
  let seen = Hashtbl.create 8 in
  let rec walk acc qn =
    if Hashtbl.mem seen qn then acc
    else (
      Hashtbl.add seen qn ();
      match find_interface spec qn with
      | None -> acc
      | Some base ->
          let acc = List.fold_left walk acc base.i_inherits in
          base :: acc)
  in
  List.rev (List.fold_left walk [] i.i_inherits)

(** All operations visible on an interface, inherited ones first (base
    before derived, matching dispatch delegation order in the paper,
    Section 3.1). *)
let all_operations spec (i : interface) =
  let bases = ancestors spec i in
  List.concat_map (fun b -> b.i_ops) bases @ i.i_ops

let all_attributes spec (i : interface) =
  let bases = ancestors spec i in
  List.concat_map (fun b -> b.i_attrs) bases @ i.i_attrs

(** [is_variable spec] is the exact variable-length test for the types
    of [spec], consulting struct/union member types through the entity
    table (unlike the conservative {!Ctype.is_variable_length}).

    The partial application indexes every struct and union by flat name
    once; apply it once per spec and reuse the closure. Two aggregates
    may share a flat name ([A::B_C] and [A_B::C]): a type naming it is
    variable if either is. An aggregate already on the path being
    walked counts as fixed, which cuts the cycles such a collision can
    make. *)
let is_variable spec =
  let members = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ e ->
      match e with
      | E_struct s ->
          Hashtbl.add members (flat_of_qname s.s_qname) (List.map (fun f -> f.f_type) s.s_fields)
      | E_union u ->
          Hashtbl.add members (flat_of_qname u.u_qname) (List.map (fun c -> c.uc_type) u.u_cases)
      | _ -> ())
    spec.entities;
  let rec go seen t =
    match Ctype.resolve_alias t with
    | Ctype.String _ | Ctype.Sequence _ | Ctype.Objref _ | Ctype.Any -> true
    | Ctype.Struct n | Ctype.Union n ->
        (not (List.mem n seen))
        && List.exists (List.exists (go (n :: seen))) (Hashtbl.find_all members n)
    | _ -> false
  in
  go []
