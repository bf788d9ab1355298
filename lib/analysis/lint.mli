(** IDL lint passes over the resolved semantic model.

    Beyond the hard errors {!Est.Resolve} enforces, these passes check
    hygiene and portability rules whose violations only surface once
    mappings and protocols are user-supplied data (the paper's setting):

    - [W101] case-insensitive name collisions (CORBA lookup is
      case-insensitive even though this resolver is not);
    - [W103] [incopy] on non-interface types (no effect — paper §3.1);
    - [W104] unused declarations (conservative reference-graph check);
    - [W105] identifiers that are reserved words in a registered mapping's
      target language, consulting each mapping's reserved-word table;
    - [W106] ambiguous diamond inheritance (same member name from two
      unrelated bases);
    - [E010] repository-ID collisions ([#pragma prefix] re-creating a path
      that also exists as module nesting).

    All findings go to the given {!Idl.Diag.reporter}; Sem-level lints
    carry the file's location only (the semantic model is location-free by
    design, Fig. 8). *)

val default_passes : string list
(** The codes the spec-level passes can emit. *)

val check_spec :
  ?mappings:Mappings.Mapping.t list ->
  Idl.Diag.reporter ->
  file:string ->
  Est.Sem.spec ->
  unit
(** Run every pass over a resolved spec, first forwarding the resolver's
    own accumulated warnings ({!Est.Sem.spec.warnings}) to the reporter.
    [mappings] defaults to {!Mappings.Registry.all}. *)

val run_source :
  ?mappings:Mappings.Mapping.t list ->
  Idl.Diag.reporter ->
  filename:string ->
  string ->
  Est.Sem.spec option
(** Parse and resolve IDL source with error recovery (the reporter is
    passed to the parser and the resolver, so all independent front-end
    errors are accumulated in it and in no other), then run
    {!check_spec}. Returns [None] when a syntax error prevented parsing
    — the error has already been reported. *)

val run_file :
  ?mappings:Mappings.Mapping.t list ->
  Idl.Diag.reporter ->
  string ->
  Est.Sem.spec option
(** {!run_source} on a file's contents.
    @raise Sys_error if the file cannot be read. *)
