(** Diagnostics: compile-time errors and warnings with source locations,
    stable codes, and an accumulating reporter for lint mode.

    Two regimes coexist, chosen per call by the [reporter option] the
    front end is given (there is no ambient reporter):

    - {b Abort-on-first-error} (the historic compiler behaviour): {!error}
      raises {!Idl_error}; callers catch it at the driver and render one
      diagnostic. This is the regime whenever no reporter is passed.
    - {b Accumulate-and-continue} (lint mode): pass a {!reporter} to
      [Parser.parse_string] and [Est.Resolve.spec]; recovery points
      wrapped in {!recover} then catch {!Idl_error}, add the diagnostic to
      the reporter, and continue, so a single run surfaces every
      independent problem.

    Codes are stable strings: [E0xx] front-end errors, [W1xx] lint
    warnings, [T2xx] template-checker findings, [V3xx] interface-evolution
    findings (see [Analysis.Codes] for the table). *)

type severity = Error | Warning

type t = {
  severity : severity;
  code : string;  (** Stable code such as ["E003"]; [""] when uncoded. *)
  loc : Loc.t;
  message : string;
  notes : (Loc.t * string) list;
      (** Related source locations, e.g. the previous definition. *)
}

exception Idl_error of t
(** Raised by the lexer, parser, and semantic analysis on fatal errors. *)

val make :
  ?code:string ->
  ?notes:(Loc.t * string) list ->
  severity:severity ->
  loc:Loc.t ->
  string ->
  t

val error :
  ?code:string ->
  ?notes:(Loc.t * string) list ->
  loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** [error ~loc fmt ...] raises {!Idl_error} with a formatted message. *)

val warning :
  ?code:string ->
  ?notes:(Loc.t * string) list ->
  loc:Loc.t ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [warning ~loc fmt ...] builds a warning diagnostic (not raised). *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: error[E003]: message], one extra [note:] line per note. *)

val to_string : t -> string

val to_json : t -> string
(** One diagnostic as a JSON object (the [--lint-json] element shape). *)

(** {1 Accumulating reporter} *)

type reporter

val reporter : ?werror:bool -> unit -> reporter
(** A fresh reporter. [werror] promotes warnings to errors for counting
    and rendering purposes. *)

val set_enabled : reporter -> string -> bool -> unit
(** Enable or disable a warning code. Disabled codes are dropped at
    {!report} time; error-severity diagnostics are never dropped. *)

val report : reporter -> t -> unit
(** Add a diagnostic. Duplicates (same code, location and message) and
    disabled warning codes are dropped silently. *)

val diagnostics : reporter -> t list
(** All retained diagnostics, sorted by file, line and column (stable for
    equal positions). *)

val error_count : reporter -> int
(** Number of error-severity diagnostics; under [werror] warnings count. *)

val warning_count : reporter -> int
val has_errors : reporter -> bool

val render_text : reporter -> string
(** Every diagnostic through {!pp}, one per line, location-sorted. *)

val render_json : reporter -> string
(** The [--lint-json] document: a JSON array of diagnostic objects. *)

(** {1 Error-recovery hooks}

    Each takes the reporter of the run it belongs to, or [None]. *)

val recover : reporter option -> default:'a -> (unit -> 'a) -> 'a
(** [recover reporter ~default f]: given a reporter, catch {!Idl_error}
    from [f], report it, and return [default]; given [None], run [f]
    bare. *)

val emit :
  reporter option ->
  ?code:string ->
  ?notes:(Loc.t * string) list ->
  loc:Loc.t ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Accumulate an error given a reporter; raise {!Idl_error} given
    [None]. *)
