(** The registry of built-in mappings. *)

val all : Mapping.t list
(** Every built-in mapping: heidi-cpp, corba-cpp, java, tcl, ocaml. *)

val find : string -> Mapping.t option
(** Look up a mapping by CLI name. *)

val names : string list

val all_maps : unit -> Template.Maps.t
(** A fresh union of every built-in mapping's map functions, for custom
    templates that may reference any of them. *)
