(** Helpers shared by the built-in mappings' map functions. *)

val split_flat : string -> string list
(** Split a flat name on ['_']: ["Heidi_SSequence"] → [["Heidi";
    "SSequence"]]. Note the documented ambiguity: IDL identifiers
    containing underscores are indistinguishable from scope separators in
    flat names (the same limitation as any flat C-style mapping). *)

val split_scoped : string -> string list
(** Split a scoped name on ["::"]. *)

val split_name : string -> string list
(** Split either form: uses ["::"] when present, ['_'] otherwise. *)

val hd_name : string -> string
(** The Heidi class-naming convention (paper Fig. 3): drop a leading
    [Heidi] scope, join remaining segments, prefix ["Hd"] —
    ["Heidi::A"] → ["HdA"], ["Heidi_SSequence"] → ["HdSSequence"],
    ["Receiver"] → ["HdReceiver"]. *)

val cpp_scoped : string -> string
(** Flat or scoped name → C++ scoped spelling: ["Heidi_A"] → ["Heidi::A"]. *)

val java_name : string -> string
(** Flat or scoped name → Java spelling: last segment only. *)

val last_segment : string -> string

val ctype : string -> Est.Ctype.t
(** Parse a type-property encoding; raises [Failure] on garbage (a
    template bug). Each domain parses a given string once and keeps the
    result in a bounded table of its own. *)

val value : string -> Est.Value.t

val capitalize : string -> string

val float_literal : float -> string
(** A C-family float literal that round-trips ([1.5], [1e-09], ...). *)
