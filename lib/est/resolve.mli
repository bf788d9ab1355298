(** Name resolution and type checking: turns a parsed {!Idl.Ast.spec} into
    a {!Sem.spec}.

    Implements the CORBA scoping rules for the supported subset: names are
    searched in the current scope, then in inherited interface scopes, then
    in enclosing scopes; [::]-prefixed names are resolved from the root.
    Enum members are introduced into their enclosing scope. Modules may be
    re-opened. Forward-declared interfaces may be referenced as object
    reference types before their definition.

    Checks performed (errors raise {!Idl.Diag.Idl_error}):
    - duplicate definitions in a scope;
    - unresolved name references;
    - inheritance from something that is not a (defined) interface, and
      inheritance cycles;
    - duplicate operation/attribute names within an interface, including
      clashes with inherited ones;
    - [raises] clauses naming non-exceptions;
    - constant expression type errors, overflow and division by zero;
    - default parameter values incompatible with the parameter type
      (paper extension, Section 3.1);
    - [oneway] operations with [out]/[inout] parameters, a non-void
      return type, or a [raises] clause;
    - invalid union discriminator types, duplicate case labels, and more
      than one [default] case. *)

val spec : ?reporter:Idl.Diag.reporter -> Idl.Ast.spec -> Sem.spec
(** @raise Idl.Diag.Idl_error on any semantic error.

    Error recovery: given a [reporter] (as [idlc lint] passes one), errors
    are accumulated at per-definition, per-entity, per-operation,
    per-attribute and per-field recovery points instead of raised, so one
    run reports every independent problem. Entities that failed to
    resolve are absent from the returned {!Sem.spec}. Without a reporter
    the first error raises, exactly the historic behaviour. *)
