(** Recursive-descent parser for the OMG IDL subset (plus HeidiRMI
    extensions). The grammar follows CORBA 2.0 chapter 3, restricted to the
    constructs listed in {!Ast}, and extended with default parameter values
    and the [incopy] parameter mode. *)

val parse_string :
  ?reporter:Diag.reporter -> ?filename:string -> string -> Ast.spec
(** [parse_string ~filename src] parses IDL source text. [filename] is used
    in diagnostics (default ["<string>"]). Given a [reporter], the checks
    that do not derail parsing (E005, E012) report to it and parsing
    continues.
    @raise Diag.Idl_error on lexical or syntax errors, and without a
    [reporter] on the first error of any kind. *)

val parse_file : ?reporter:Diag.reporter -> string -> Ast.spec
(** [parse_file path] reads and parses an IDL file, as {!parse_string}.
    @raise Diag.Idl_error on lexical or syntax errors.
    @raise Sys_error if the file cannot be read. *)
