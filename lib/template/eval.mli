(** Template evaluator: runs a compiled template over an EST.

    This is the second of the paper's two code-generation steps. Together
    with {!Parse.parse} it also provides the merged single-step generation
    that Section 4.1 describes as planned future work — see {!render}.

    {2 Evaluation semantics}

    [run] first binds the template ({!Bind.bind}), resolving every
    scope rule that does not depend on the EST, then runs the bound
    form:

    - [${v}] inside a [@foreach] is the innermost loop's binding when
      [v] is [ifMore], [index], [count], [isFirst] or [isLast]; any
      other [${v}], and every [${v}] at top level, is a property looked
      up over the node stack, innermost first. The value is passed
      through the innermost [-map v Fn] declaration in scope, if any;
      an unknown [Fn] raises only when evaluation reaches the use.
    - [@foreach g] iterates over group [g] of the {e current} node only
      (no outward search), pushing each child as a new frame. An absent
      group iterates zero times.
    - [@if] conditions compare {e unmapped} values: they test EST state,
      while substitutions produce target-language spellings.
    - [@openfile] redirects subsequent output to the named file buffer;
      reopening a name appends. Output produced before any [@openfile]
      is collected separately (see {!output}). *)

exception Eval_error of { template : string; line : int; message : string }

type output = {
  files : (string * string) list;  (** \@openfile targets, in order opened. *)
  stdout : string;  (** Output produced outside any \@openfile. *)
}

val run : ?maps:Maps.t -> Ast.t -> Est.Node.t -> output
(** Evaluate a compiled template against an EST root (or any subtree).
    @raise Eval_error on unresolved variables or unknown map functions. *)

val render : ?maps:Maps.t -> name:string -> string -> Est.Node.t -> output
(** One-step convenience: [parse] then [run].
    @raise Parse.Template_error / Eval_error accordingly. *)

val concat_output : output -> string
(** All output concatenated: [stdout] followed by each file's content in
    order — convenient for golden tests. *)
