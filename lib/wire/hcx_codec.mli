(** HCX ("heidi-compact") — compact binary codec: varint integers,
    length-prefixed strings, no alignment padding, explicit leading
    version byte. See the "Wire protocols" section of DESIGN.md for the
    full format table.

    Integers use LEB128 varints (signed types zigzag-mapped first), so
    small values — the overwhelming majority of ids, lengths and enum
    tags — cost one byte. Floats are fixed-width little-endian. Because
    nothing is aligned, a decoder can start at any offset of a larger
    string: {!make_decoder_view} decodes a sub-range in place.

    Encoders take their buffer from a one-slot-per-domain cache and
    return it on [finish]; the result string is the only allocation a
    warm encoder makes per message. *)

val version : int
(** Wire-format version this implementation encodes (currently 1); the
    first byte of every HCX payload. A decoder rejects any other value
    with {!Codec.Type_error} before interpreting the rest of the frame. *)

val codec : Codec.t
(** Codec name ["hcx"]. *)

val make_decoder_view :
  Codec.limits -> string -> off:int -> len:int -> Codec.decoder
(** [make_decoder_view limits buf ~off ~len] decodes the HCX payload
    occupying [buf.[off .. off+len-1]] in place; no [String.sub] of
    the range is taken (strings inside it are still copied out). Raises
    [Invalid_argument] if the range is out of bounds and
    {!Codec.Type_error} if the version byte is not {!version}. *)
