(** Stringified object references (paper Section 3.1), extended with
    replicated endpoint sets.

    A HeidiRMI object reference has three parts: the bootstrap URL (a
    protocol–hostname–port tuple that tells the client how to open a
    communication channel), the object identifier (unique within its
    address space), and the object type (the repository ID, which selects
    the stub and skeleton). The printed form is exactly the paper's:

    {v @tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0 v}

    A reference may name a {e set} of endpoints — replicas all serving
    the same oid — as a comma-separated URL list (DESIGN.md
    "Replication and naming"):

    {v @tcp:h1:1234,tcp:h2:1234,tcp:h3:1234#9876#IDL:Heidi/A:1.0 v}

    The single-endpoint grammar parses and prints unchanged, so
    references written by older peers interoperate both ways. Hosts and
    protocols therefore must not contain [','] or ['#'], hosts not
    [':'] either (the parser reads an endpoint's host and port from the
    right), and the oid and type id not ['#']. Every constructor checks
    this, so every reference prints a text that {!of_string_opt} parses
    back to an equal reference. *)

type t = private {
  proto : string;  (** Primary endpoint's transport, e.g. ["tcp"] or ["mem"]. *)
  host : string;
  port : int;
  extra : (string * string * int) list;
      (** Replica endpoints beyond the primary, in registration order.
          [[]] for the historical single-endpoint reference. *)
  oid : string;  (** Object identifier within the address space. *)
  type_id : string;  (** Repository ID, e.g. ["IDL:Heidi/A:1.0"]. *)
  text : string;
      (** The printed form ({!to_string}). A reference is immutable, so
          it is printed once, by the constructor that makes it; a parsed
          reference keeps the string it was parsed from, which is
          already its printed form. The type is [private] so no record
          can be built whose [text] disagrees with its fields. *)
}

val make : proto:string -> host:string -> port:int -> oid:string -> type_id:string -> t
(** A single-endpoint reference (the historical constructor):
    {!make_multi} with one endpoint, and the same checks. *)

val make_multi :
  endpoints:(string * string * int) list -> oid:string -> type_id:string -> t
(** A reference over an endpoint set; the first endpoint is the primary.
    @raise Invalid_argument on an empty set, an empty proto/host, an
    out-of-range port, a host or proto containing [','] or ['#'], a
    host containing [':'], an oid or type id containing ['#'], or
    duplicate endpoints. *)

val endpoints : t -> (string * string * int) list
(** All [(proto, host, port)] endpoints, primary first. Never empty. *)

val endpoint : t -> string * string * int
(** The primary [(proto, host, port)] connection tuple. *)

val is_multi : t -> bool
(** True when the reference carries more than one endpoint. *)

val with_endpoints : t -> (string * string * int) list -> t
(** Same object, different endpoint set (same validation as
    {!make_multi}). *)

val at_endpoint : t -> string * string * int -> t
(** The single-endpoint view of a reference at one of its replicas —
    what the client puts on the wire once it has picked an endpoint, so
    peers that predate the multi-endpoint grammar keep parsing every
    envelope target.
    @raise Invalid_argument if the endpoint is malformed, as in
    {!make_multi}. *)

val to_string : t -> string
(** [@proto:host:port[,proto:host:port...]#oid#type_id] — the [text]
    field, read without allocating. *)

val endpoint_to_string : string * string * int -> string
(** One endpoint as it is printed in a reference: [proto:host:port]. *)

val of_string : string -> t
(** @raise Invalid_argument on a malformed reference (including empty or
    duplicate endpoints in a set). *)

val of_string_opt : string -> t option
(** Accepts exactly the strings {!to_string} produces. A port is
    canonical decimal: ASCII digits below 65536, no sign, no [0x]/[0o]/
    [0b]/[0u] prefix, no ['_'], and no leading zero except ["0"]
    itself, so [@tcp:h:080#o#t] is refused. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
