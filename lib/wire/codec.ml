exception Type_error of string

let () =
  Printexc.register_printer (function
    | Type_error m -> Some (Printf.sprintf "Wire.Codec.Type_error: %s" m)
    | _ -> None)

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
  put_end : unit -> unit;
  put_len : int -> unit;
  finish : unit -> string;
  finish_slices : unit -> string list;
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
  at_end : unit -> bool;
}

(* Decode-side resource limits. Decoders must not trust any count that
   arrives on the wire: a hostile [#4294967295] length prefix would
   otherwise make the first [List.init]-style consumer allocate
   unbounded memory before a single element fails to parse. Limits are
   checked where the count is *decoded*, so the failure is a clean
   [Type_error] with the payload position still defined. *)
type limits = {
  max_frame_bytes : int;
      (* enforced by the framing layer (communicator), recorded here so
         one record travels with the codec *)
  max_string_bytes : int;
  max_sequence_length : int;
  max_nesting_depth : int;
}

let default_limits =
  {
    max_frame_bytes = 16 * 1024 * 1024;
    max_string_bytes = 4 * 1024 * 1024;
    max_sequence_length = 1_000_000;
    max_nesting_depth = 128;
  }

let unlimited =
  {
    max_frame_bytes = max_int;
    max_string_bytes = max_int;
    max_sequence_length = max_int;
    max_nesting_depth = max_int;
  }

type t = {
  name : string;
  encoder : unit -> encoder;
  decoder : string -> decoder;  (* decoder_limited default_limits *)
  decoder_limited : limits -> string -> decoder;
  decoder_sub : limits -> string -> pos:int -> len:int -> decoder;
}

(* One decoder per codec, over a sub-range; the whole-string decoders
   are that sub-range decoder over the whole string, so there is one
   decode path. The range is checked here, once for every codec. *)
let make ~name ~encoder sub =
  let decoder_sub limits s ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg
        (Printf.sprintf "Wire.Codec.decoder_sub: range %d+%d of a %d-byte string"
           pos len (String.length s));
    sub limits s ~pos ~len
  in
  let decoder_limited limits s = sub limits s ~pos:0 ~len:(String.length s) in
  {
    name;
    encoder;
    decoder = decoder_limited default_limits;
    decoder_limited;
    decoder_sub;
  }

let concat = function [ s ] -> s | slices -> String.concat "" slices

let range_check what ~min ~max v =
  if v < min || v > max then
    raise
      (Type_error
         (Printf.sprintf "%s value %d out of range [%d, %d]" what v min max))
  else v
