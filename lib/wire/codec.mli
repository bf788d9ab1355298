(** Pluggable marshaling codecs.

    A codec turns a sequence of typed primitive values into a payload
    string and back. The HeidiRMI text protocol ({!Text_codec}) and the
    CDR binary encoding ({!Cdr_codec}) both implement this interface;
    the {!Call} abstraction (paper Fig. 4) is built on top of it, so the
    on-the-wire protocol can be swapped without touching stubs or
    skeletons — the configurability argued for in Section 2.

    Integer widths: [short]/[ushort]/[long]/[ulong] use OCaml [int] with
    range checks on encode; [long long]/[unsigned long long] use [int64].
    [float] is encoded at 32-bit precision, [double] at 64-bit. *)

exception Type_error of string
(** Raised by decoders on type or format mismatches (the text codec tags
    every token with its type; CDR detects only truncation). *)

type encoder = {
  put_bool : bool -> unit;
  put_char : char -> unit;
  put_octet : int -> unit;
  put_short : int -> unit;
  put_ushort : int -> unit;
  put_long : int -> unit;
  put_ulong : int -> unit;
  put_longlong : int64 -> unit;
  put_ulonglong : int64 -> unit;
  put_float : float -> unit;
  put_double : float -> unit;
  put_string : string -> unit;
  put_begin : unit -> unit;
      (** Open a structuring group (paper: the [Call]'s [begin] function,
          used to delimit structs and sequences). *)
  put_end : unit -> unit;
  put_len : int -> unit;  (** Sequence length prefix. *)
  finish : unit -> string;  (** The completed payload. *)
  finish_slices : unit -> string list;
      (** The gather finish: the completed payload as slices that
          concatenate to what [finish] returns. A long string put into
          the encoder (see {!Buf.ref_min}) comes back as its own slice,
          uncopied, so an envelope around a payload is handed back as
          head, payload and trailer for a gathered write. The two
          finishes agree, and either may be called more than once. *)
}

type decoder = {
  get_bool : unit -> bool;
  get_char : unit -> char;
  get_octet : unit -> int;
  get_short : unit -> int;
  get_ushort : unit -> int;
  get_long : unit -> int;
  get_ulong : unit -> int;
  get_longlong : unit -> int64;
  get_ulonglong : unit -> int64;
  get_float : unit -> float;
  get_double : unit -> float;
  get_string : unit -> string;
  get_begin : unit -> unit;
  get_end : unit -> unit;
  get_len : unit -> int;
  at_end : unit -> bool;  (** True when the payload is exhausted. *)
}

(** {2 Decode-side resource limits}

    Decoders must not trust wire-supplied counts: a hostile
    [#4294967295] length prefix must fail with {!Type_error} at the
    point it is decoded, before any consumer allocates storage for the
    claimed elements. *)
type limits = {
  max_frame_bytes : int;
      (** Enforced by the framing layer ([Orb.Communicator]); carried
          here so one record describes the whole decode budget. *)
  max_string_bytes : int;  (** Longest decodable string, in bytes. *)
  max_sequence_length : int;  (** Largest [get_len] count. *)
  max_nesting_depth : int;  (** Deepest [get_begin] nesting. *)
}

val default_limits : limits
(** Generous but finite: 16 MiB frames, 4 MiB strings, 1M-element
    sequences, depth 128 — far beyond anything the runtime's own
    protocols produce, small enough that a hostile peer cannot cause
    unbounded allocation. *)

val unlimited : limits
(** Every field [max_int] — the pre-hardening behaviour, for tools that
    parse trusted local data. *)

type t = {
  name : string;  (** e.g. ["text"] or ["cdr-be"]. *)
  encoder : unit -> encoder;
  decoder : string -> decoder;
      (** Equivalent to [decoder_limited default_limits]. *)
  decoder_limited : limits -> string -> decoder;
      (** [decoder_sub] over the whole string. *)
  decoder_sub : limits -> string -> pos:int -> len:int -> decoder;
      (** Decode the [len] bytes at [pos], in place: nothing outside the
          range is read, [at_end] is the range's end, a truncation there
          fails as it would at the end of a string holding only the
          range, and error offsets (and CDR alignment) count from [pos].
          So the result, or the error text, is the same as for
          [decoder_limited] on [String.sub s pos len].
          @raise Invalid_argument if the range is not inside [s]. *)
}

val make :
  name:string ->
  encoder:(unit -> encoder) ->
  (limits -> string -> pos:int -> len:int -> decoder) ->
  t
(** A codec from its encoder and its sub-range decoder; [decoder] and
    [decoder_limited] decode the whole string through the latter, and
    [decoder_sub] checks the range before calling it. *)

val concat : string list -> string
(** Join slices (from [finish_slices]) into one string; a single slice
    is returned as it is, uncopied. *)

val range_check : string -> min:int -> max:int -> int -> int
(** [range_check what ~min ~max v] returns [v] or raises {!Type_error}
    naming [what]. Shared by codec implementations. *)
