(** Static checker for code-generation templates.

    Validates a template against the EST schema — the node kinds
    {!Est.Build} produces and the properties/groups each kind defines
    (Fig. 8) — without evaluating it against any IDL. Codes:

    - [T201] template syntax error (from {!Template.Parse});
    - [T202] [${var}] that no kind on the enclosing [@foreach] stack
      defines (and is not a loop binding);
    - [T203] unknown map function in [-map] or [${var:Map::Fn}];
    - [T204] [@foreach] over a group the current node kind does not
      define — the body is then checked under a wildcard kind so one bad
      loop does not cascade;
    - [T205] [@openfile] whose name substitutes an unbound variable.

    The checker reports what {!Template.Bind.bind} found: the same pass
    the evaluator runs binds the template, and its list of property
    uses, [@foreach]es and unknown map functions is checked against the
    schema, so both resolve every name by one set of rules.

    [maps] is the registry map-function names are checked against; it
    defaults to the union of every built-in mapping's maps. *)

type kind_info = {
  props : string list;  (** Every property a node of the kind carries. *)
  groups : (string * string) list;  (** Child group name → child kind. *)
}

val schema : (string * kind_info) list
(** The EST schema the checker checks against: one row per node kind
    {!Est.Build} produces (the root's [fileBase]/[fileName] included). *)

val check_ast :
  ?maps:Template.Maps.t ->
  Idl.Diag.reporter ->
  filename:string ->
  Template.Ast.t ->
  unit

val check_source :
  ?maps:Template.Maps.t ->
  Idl.Diag.reporter ->
  filename:string ->
  string ->
  bool
(** Parse ([T201] reported on failure) then {!check_ast}. Returns [true]
    when the template parsed. *)

val check_file :
  ?maps:Template.Maps.t -> Idl.Diag.reporter -> string -> bool
(** {!check_source} on a file's contents.
    @raise Sys_error if the file cannot be read. *)
