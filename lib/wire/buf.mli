(** Growable gather buffer: small writes go into a [Bytes] store, long
    strings are kept by reference.

    Capacity doubles with one blit of the written prefix. A string of at
    least {!ref_min} bytes is not copied in: the buffer records where it
    goes and hands it back as its own slice ({!slices}), or copies it
    once into the result ({!contents}). Strings are immutable, so the
    reference is as good as a copy. The buffer can be {!clear}ed and
    reused, so an encoder that keeps one across messages allocates only
    each message's result. *)

type t

val ref_min : int
(** Strings at least this long (1 KiB) are appended by reference. *)

val create : ?initial:int -> unit -> t
(** [create ?initial ()] allocates a buffer with [initial] bytes of
    capacity (default 256, minimum 16). *)

val capacity : t -> int
(** Bytes of storage currently held; grows, never shrinks. Referenced
    strings do not count. *)

val length : t -> int
(** Bytes written so far, referenced strings included. *)

val clear : t -> unit
(** Reset the write position to zero and drop the references, without
    shrinking the storage. *)

val add_char : t -> char -> unit

val add_string : t -> string -> unit
(** Copy a short string in; keep a string of {!ref_min} bytes or more by
    reference. *)

val add_uvarint : t -> int -> unit
(** [add_uvarint t v] appends [v] as an unsigned LEB128 varint (7 bits
    per byte, least significant group first, minimal length) with one
    capacity check for the whole value. [v] must be non-negative. *)

val add_uint16_le : t -> int -> unit
val add_uint16_be : t -> int -> unit
(** Two bytes, of the low 16 bits of the value. *)

val add_int32_le : t -> int32 -> unit
val add_int32_be : t -> int32 -> unit
val add_int64_le : t -> int64 -> unit
val add_int64_be : t -> int64 -> unit

val contents : t -> string
(** The written bytes as one fresh string: one copy of everything. *)

val slices : t -> string list
(** The written bytes as slices in order, which concatenate to
    {!contents}: each run of copied bytes as a fresh string, each
    referenced string as itself. A buffer without references gives one
    slice. Empty runs are left out, so [[]] when nothing was written. *)
