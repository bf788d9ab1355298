(** The scope pass: binds each [${var}] of a parsed template once.

    This is the part of the paper's first code-generation step (Section
    4.1) that depends only on the template: it walks {!Ast.t} with a
    static stack of [@foreach] frames and resolves everything that does
    not depend on the EST. The evaluator ({!Eval.run}) runs the bound
    tree; the static checker ([Analysis.Tmpl_check]) replays its
    {!use} list against the EST schema. Both therefore see one set of
    scope rules:

    - inside a [@foreach], a loop binding ([ifMore], [index], [count],
      [isFirst], [isLast]) refers to the innermost [@foreach]; at top
      level it is an ordinary property of the root;
    - every other [${v}] is a property, looked up at run time over the
      node stack, innermost first;
    - [${v}] goes through the innermost [-map v Fn] in scope, and
      [${v:Fn}] through [Fn]; each becomes the function it names. An
      unknown name becomes a function raising {!Eval_error} at the
      line of the use, so the error appears only when evaluation
      reaches it. *)

exception Eval_error of { template : string; line : int; message : string }
(** Re-exported as {!Eval.Eval_error}. *)

(** Where a substituted or compared value comes from. *)
type source =
  | Const of string  (** Literal text. *)
  | Prop of string  (** A property, looked up over the node stack. *)
  | Loop of (int -> int -> string)
      (** A loop binding of the innermost [@foreach], from the current
          child's index and the group's length. *)

type value = { src : source; map : Maps.fn option }
(** One text segment: its source and the map function applied to it. *)

type item =
  | Text of { segments : value list; newline : bool; line : int }
  | Foreach of { group : string; body : item list }
  | If of {
      lhs : source;
      rhs : source;
      equal : bool;  (** [==] when true, [!=] when false. *)
      then_ : item list;
      else_ : item list;
      line : int;
    }
      (** Compares unmapped values; [@if ${v}] is [${v} != ""]. *)
  | Openfile of { segments : value list; line : int }

(** What the pass saw, for the static checker. [scope] is the group
    path of the enclosing [@foreach]es, innermost first. *)
type use =
  | Prop_use of { name : string; line : int; openfile : bool; scope : string list }
      (** A property use; [openfile] when it is in an [@openfile] name. *)
  | Group_use of { group : string; line : int; scope : string list }
      (** A [@foreach group]. *)
  | Map_miss of { fn : string; var : string; line : int }
      (** A [-map] or inline map function the registry lacks. *)

type t = { items : item list; uses : use list  (** In document order. *) }

val bind : ?maps:Maps.t -> Ast.t -> t
(** Bind a template against a map registry (default {!Maps.empty}).
    Never raises. *)
