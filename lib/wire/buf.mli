(** Growable byte buffer backed by [Bytes].

    Capacity doubles with one blit of the written prefix; strings are
    appended with one blit each and {!contents} takes one copy. The
    buffer can be {!clear}ed and reused, so an encoder that keeps one
    across messages allocates only each message's result string. *)

type t

val create : ?initial:int -> unit -> t
(** [create ?initial ()] allocates a buffer with [initial] bytes of
    capacity (default 256, minimum 16). *)

val capacity : t -> int
(** Bytes of storage currently held; grows, never shrinks. *)

val clear : t -> unit
(** Reset the write position to zero without shrinking the storage. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit

val add_uvarint : t -> int -> unit
(** [add_uvarint t v] appends [v] as an unsigned LEB128 varint (7 bits
    per byte, least significant group first, minimal length) with one
    capacity check for the whole value. [v] must be non-negative. *)

val add_int32_le : t -> int32 -> unit
(** Four bytes, little-endian. *)

val add_int64_le : t -> int64 -> unit
(** Eight bytes, little-endian. *)

val contents : t -> string
(** Copy the written bytes out as a fresh string. *)
