(** IDL lint passes over the resolved semantic model.

    Each pass walks the {!Est.Sem.spec} produced by {!Est.Resolve.spec}
    and reports findings to an {!Idl.Diag.reporter}. The passes here check
    properties the compiler proper does not enforce — hygiene and
    portability rules that only matter once mappings and protocols are
    user-supplied data (the paper's setting): a colliding repository ID or
    a target-keyword clash produces generated code that fails far from its
    cause, which is exactly what [idlc lint] exists to prevent. *)

module Sem = Est.Sem
module Ctype = Est.Ctype
module Diag = Idl.Diag

let last qn = List.nth qn (List.length qn - 1)

(* Sem carries no per-entity locations (the EST is location-free by
   design, Fig. 8), so lint findings anchor to the file's origin. *)
let file_loc file = Idl.Loc.make ~file ~line:0 ~col:0

(* ---------------- W101: case-insensitive collisions ----------------

   CORBA identifier lookup is case-insensitive (IDL 3.2.3): two names in
   one scope that differ only in case collide. The resolver's tables are
   case-sensitive (historic behaviour kept for compatibility), so this is
   a lint finding. Scopes checked: each module's members, each interface's
   operations/attributes/nested declarations, struct/exception fields,
   union cases, enum members. *)

let check_case_collisions reporter ~file spec =
  let loc = file_loc file in
  let check_scope ~what names =
    let seen : (string, string) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun n ->
        let key = String.lowercase_ascii n in
        match Hashtbl.find_opt seen key with
        | Some prev when prev <> n ->
            Diag.report reporter
              (Diag.warning ~code:"W101" ~loc
                 "names %S and %S in %s differ only in case (CORBA lookup \
                  is case-insensitive)"
                 prev n what)
        | Some _ -> () (* exact duplicate: E002/E009 territory *)
        | None -> Hashtbl.add seen key n)
      names
  in
  check_scope ~what:"the global scope" (List.map last spec.Sem.toplevel);
  List.iter
    (fun e ->
      match e with
      | Sem.E_module (qn, members) ->
          check_scope
            ~what:(Printf.sprintf "module %S" (Sem.scoped_of_qname qn))
            (List.map last members)
      | Sem.E_interface i ->
          check_scope
            ~what:(Printf.sprintf "interface %S" (Sem.scoped_of_qname i.i_qname))
            (List.map (fun (o : Sem.operation) -> o.op_name) i.i_ops
            @ List.map (fun (a : Sem.attribute) -> a.at_name) i.i_attrs
            @ List.map last i.i_decls);
          List.iter
            (fun (op : Sem.operation) ->
              check_scope
                ~what:
                  (Printf.sprintf "the parameters of %s::%s"
                     (Sem.scoped_of_qname i.i_qname) op.op_name)
                (List.map (fun (p : Sem.param) -> p.p_name) op.op_params))
            i.i_ops
      | Sem.E_struct s ->
          check_scope
            ~what:(Printf.sprintf "struct %S" (Sem.scoped_of_qname s.s_qname))
            (List.map (fun (f : Sem.field) -> f.f_name) s.s_fields)
      | Sem.E_except x ->
          check_scope
            ~what:(Printf.sprintf "exception %S" (Sem.scoped_of_qname x.x_qname))
            (List.map (fun (f : Sem.field) -> f.f_name) x.x_fields)
      | Sem.E_union u ->
          check_scope
            ~what:(Printf.sprintf "union %S" (Sem.scoped_of_qname u.u_qname))
            (List.map (fun (c : Sem.union_case) -> c.uc_name) u.u_cases)
      | Sem.E_enum en ->
          check_scope
            ~what:(Printf.sprintf "enum %S" (Sem.scoped_of_qname en.e_qname))
            en.e_members
      | _ -> ())
    (Sem.all_entities spec)

(* ---------------- W103: incopy on non-interface types ---------------- *)

let check_incopy reporter ~file spec =
  let loc = file_loc file in
  List.iter
    (fun (i : Sem.interface) ->
      List.iter
        (fun (op : Sem.operation) ->
          List.iter
            (fun (p : Sem.param) ->
              match (p.p_mode, Ctype.resolve_alias p.p_type) with
              | Idl.Ast.Incopy, Ctype.Objref _ -> ()
              | Idl.Ast.Incopy, _ ->
                  Diag.report reporter
                    (Diag.warning ~code:"W103" ~loc
                       "parameter %S of %s::%s is 'incopy' but its type %s \
                        is not an interface ('incopy' only differs from \
                        'in' for object references)"
                       p.p_name
                       (Sem.scoped_of_qname i.i_qname)
                       op.op_name (Ctype.to_string p.p_type))
              | _ -> ())
            op.op_params)
        i.i_ops)
    (Sem.all_interfaces spec)

(* ---------------- W104: unused declarations ----------------

   Reference graph: every Ctype mentioned by operations, attributes,
   fields, cases, discriminators, alias targets and const types marks its
   named root (and nested names) as used; enum references from folded
   constant/default values count too. Interfaces and modules are entry
   points and never flagged. Conservative by construction: consts cannot
   be tracked through folding, so consts are exempt unless nothing at all
   refers to their type's enum... keep it simple: consts are never flagged
   either (their uses are folded away by the resolver). *)

let check_unused reporter ~file spec =
  let loc = file_loc file in
  let used : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let rec mark_type t =
    (match Ctype.flat_name t with Some f -> Hashtbl.replace used f () | None -> ());
    match t with
    | Ctype.Sequence (e, _) -> mark_type e
    | Ctype.Alias (_, target) -> mark_type target
    | _ -> ()
  in
  let mark_value = function
    | Est.Value.V_enum (e, _) -> Hashtbl.replace used e ()
    | _ -> ()
  in
  let mark_fields = List.iter (fun (f : Sem.field) -> mark_type f.f_type) in
  Hashtbl.iter
    (fun _ e ->
      match e with
      | Sem.E_interface i ->
          List.iter
            (fun (op : Sem.operation) ->
              mark_type op.op_return;
              List.iter
                (fun (p : Sem.param) ->
                  mark_type p.p_type;
                  Option.iter mark_value p.p_default)
                op.op_params;
              List.iter
                (fun xqn -> Hashtbl.replace used (Sem.flat_of_qname xqn) ())
                op.op_raises)
            i.i_ops;
          List.iter (fun (a : Sem.attribute) -> mark_type a.at_type) i.i_attrs
      | Sem.E_struct s -> mark_fields s.s_fields
      | Sem.E_except x -> mark_fields x.x_fields
      | Sem.E_union u ->
          mark_type u.u_disc;
          List.iter
            (fun (c : Sem.union_case) ->
              mark_type c.uc_type;
              List.iter (function Some v -> mark_value v | None -> ()) c.uc_labels)
            u.u_cases
      | Sem.E_alias a -> mark_type a.a_target
      | Sem.E_const c ->
          mark_type c.c_type;
          mark_value c.c_value
      | _ -> ())
    spec.Sem.entities;
  List.iter
    (fun e ->
      let flag what qn =
        if not (Hashtbl.mem used (Sem.flat_of_qname qn)) then
          Diag.report reporter
            (Diag.warning ~code:"W104" ~loc "%s %S is never used" what
               (Sem.scoped_of_qname qn))
      in
      match e with
      | Sem.E_struct s -> flag "struct" s.s_qname
      | Sem.E_union u -> flag "union" u.u_qname
      | Sem.E_enum en -> flag "enum" en.e_qname
      | Sem.E_alias a -> flag "typedef" a.a_qname
      | Sem.E_except x -> flag "exception" x.x_qname
      | Sem.E_module _ | Sem.E_interface _ | Sem.E_const _ -> ())
    (Sem.all_entities spec)

(* ---------------- W105: target-keyword collisions ---------------- *)

let check_keywords reporter ~file ~mappings spec =
  let loc = file_loc file in
  let offenders ident =
    List.filter_map
      (fun (m : Mappings.Mapping.t) ->
        if Mappings.Mapping.is_reserved m ident then Some m.Mappings.Mapping.name
        else None)
      mappings
  in
  let check ~what ident =
    match offenders ident with
    | [] -> ()
    | ms ->
        Diag.report reporter
          (Diag.warning ~code:"W105" ~loc
             "%s %S is a reserved word in the target language of mapping%s %s"
             what ident
             (if List.length ms > 1 then "s" else "")
             (String.concat ", " ms))
  in
  List.iter
    (fun e ->
      match e with
      | Sem.E_module (qn, _) -> check ~what:"module name" (last qn)
      | Sem.E_interface i ->
          check ~what:"interface name" (last i.i_qname);
          List.iter
            (fun (op : Sem.operation) ->
              check ~what:"operation name" op.op_name;
              List.iter
                (fun (p : Sem.param) -> check ~what:"parameter name" p.p_name)
                op.op_params)
            i.i_ops;
          List.iter
            (fun (a : Sem.attribute) -> check ~what:"attribute name" a.at_name)
            i.i_attrs
      | Sem.E_struct s ->
          check ~what:"struct name" (last s.s_qname);
          List.iter
            (fun (f : Sem.field) -> check ~what:"member name" f.f_name)
            s.s_fields
      | Sem.E_except x ->
          check ~what:"exception name" (last x.x_qname);
          List.iter
            (fun (f : Sem.field) -> check ~what:"member name" f.f_name)
            x.x_fields
      | Sem.E_union u ->
          check ~what:"union name" (last u.u_qname);
          List.iter
            (fun (c : Sem.union_case) -> check ~what:"case name" c.uc_name)
            u.u_cases
      | Sem.E_enum en ->
          check ~what:"enum name" (last en.e_qname);
          List.iter (fun m -> check ~what:"enum member name" m) en.e_members
      | Sem.E_alias a -> check ~what:"typedef name" (last a.a_qname)
      | Sem.E_const c -> check ~what:"constant name" (last c.c_qname))
    (Sem.all_entities spec)

(* ---------------- W106: ambiguous diamond inheritance ----------------

   For each direct base, map every visible operation/attribute name to the
   ancestor interface that defines it. A name visible through two direct
   bases with *different* defining interfaces is ambiguous; the shared-
   diamond-root case (same definer along both paths) is fine. *)

let check_diamond reporter ~file spec =
  let loc = file_loc file in
  let definers_of_base bqn =
    (* name -> defining interface qname, innermost definition wins *)
    let tbl : (string, Sem.qname) Hashtbl.t = Hashtbl.create 16 in
    (match Sem.find_interface spec bqn with
    | None -> ()
    | Some b ->
        let line_of (i : Sem.interface) =
          List.iter
            (fun (o : Sem.operation) -> Hashtbl.replace tbl o.op_name i.i_qname)
            i.i_ops;
          List.iter
            (fun (a : Sem.attribute) -> Hashtbl.replace tbl a.at_name i.i_qname)
            i.i_attrs
        in
        List.iter line_of (Sem.ancestors spec b);
        line_of b);
    tbl
  in
  List.iter
    (fun (i : Sem.interface) ->
      match i.i_inherits with
      | [] | [ _ ] -> ()
      | bases ->
          let maps = List.map (fun b -> (b, definers_of_base b)) bases in
          let reported : (string, unit) Hashtbl.t = Hashtbl.create 4 in
          List.iteri
            (fun idx (b1, m1) ->
              List.iteri
                (fun jdx (b2, m2) ->
                  if jdx > idx then
                    Hashtbl.iter
                      (fun name def1 ->
                        match Hashtbl.find_opt m2 name with
                        | Some def2
                          when def1 <> def2 && not (Hashtbl.mem reported name) ->
                            Hashtbl.replace reported name ();
                            Diag.report reporter
                              (Diag.warning ~code:"W106" ~loc
                                 "interface %S inherits %S ambiguously: \
                                  defined by %S (via %S) and by %S (via %S)"
                                 (Sem.scoped_of_qname i.i_qname)
                                 name
                                 (Sem.scoped_of_qname def1)
                                 (Sem.scoped_of_qname b1)
                                 (Sem.scoped_of_qname def2)
                                 (Sem.scoped_of_qname b2))
                        | _ -> ())
                      m1)
                maps)
            maps)
    (Sem.all_interfaces spec)

(* ---------------- E010: repository-ID collisions ---------------- *)

let check_repo_ids reporter ~file spec =
  let loc = file_loc file in
  let seen : (string, Sem.qname) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let qn = Sem.entity_qname e in
      let id = Sem.repo_id spec qn in
      match Hashtbl.find_opt seen id with
      | Some prev when prev <> qn ->
          Diag.report reporter
            (Diag.make ~code:"E010" ~severity:Diag.Error ~loc
               (Printf.sprintf
                  "repository ID %S is produced by both %S and %S (check \
                   '#pragma prefix')"
                  id
                  (Sem.scoped_of_qname prev)
                  (Sem.scoped_of_qname qn)))
      | Some _ -> ()
      | None -> Hashtbl.add seen id qn)
    (Sem.all_entities spec)

(* ---------------- driver ---------------- *)

let default_passes = [ "W101"; "W103"; "W104"; "W105"; "W106"; "E010" ]

let check_spec ?(mappings = Mappings.Registry.all) reporter ~file spec =
  (* Resolver warnings (W107 etc.) surface through the same reporter. *)
  List.iter (Diag.report reporter) (List.rev spec.Sem.warnings);
  check_case_collisions reporter ~file spec;
  check_incopy reporter ~file spec;
  check_unused reporter ~file spec;
  check_keywords reporter ~file ~mappings spec;
  check_diamond reporter ~file spec;
  check_repo_ids reporter ~file spec

(* Parse + resolve with recovery + run every pass. Returns the resolved
   spec when the front-end got far enough to produce one. *)
let run_source ?mappings reporter ~filename src =
  match
    Diag.recover (Some reporter) ~default:None (fun () ->
        Some (Idl.Parser.parse_string ~reporter ~filename src))
  with
  | None -> None (* syntax error: already reported; nothing to lint *)
  | Some ast ->
      let spec = Est.Resolve.spec ~reporter ast in
      check_spec ?mappings reporter ~file:filename spec;
      Some spec

let run_file ?mappings reporter path =
  let src =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  run_source ?mappings reporter ~filename:path src
