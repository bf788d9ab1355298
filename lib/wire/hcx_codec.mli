(** HCX ("heidi-compact") — compact binary codec: varint integers,
    length-prefixed strings, no alignment padding, explicit leading
    version byte. See the "Wire protocols" section of DESIGN.md for the
    full format table.

    Integers use LEB128 varints (signed types zigzag-mapped first), so
    small values — the overwhelming majority of ids, lengths and enum
    tags — cost one byte. Floats are fixed-width little-endian, and
    nothing is aligned. The decoder reads a whole payload string.

    Encoders take their buffer from a one-slot-per-domain cache and
    return it on [finish]; the result string is the only allocation a
    warm encoder makes per message. *)

val version : int
(** Wire-format version this implementation encodes (currently 1); the
    first byte of every HCX payload. A decoder rejects any other value
    with {!Codec.Type_error} before interpreting the rest of the frame. *)

val codec : Codec.t
(** Codec name ["hcx"]. *)

