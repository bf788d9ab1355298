(** The enhanced syntax tree (EST) node: a generic property tree whose
    children are grouped by kind (Section 4.1, Figs. 7–8 of the paper).

    Unlike a plain parse tree, an EST groups similar children: all of an
    interface's attributes live in one list ([attributeList]) and all of
    its operations in another ([methodList]), regardless of how they were
    interleaved in the source. This is what makes templates simple: a
    [@foreach methodList] exhaustively enumerates the operations.

    Nodes are stringly-typed on purpose — this is the contract between the
    compiler front-end and the template engine, mirroring the paper's
    [Ast::New(name, kind, parent)] / [AddProp(key, value)] interface.

    {2 Costs}

    With [p] the properties and [g] the groups of a node (a few each, in
    the trees {!Build} makes), appending is O(1) apart from finding the
    key or group: [add_prop] and [add_child] are O(p) and O(g). A node's
    properties sit in two flat arrays that double when full, so the
    copying is amortized O(1) per append, whose only other allocation
    is the option that holds the value. Reads are O(p) or O(g) and
    allocate nothing, except that the first [group] read after an
    [add_child] to that group rebuilds its insertion-order list once,
    O(children). [props], [groups] and [equal] build fresh lists on
    every call; they serve dumps and tests, not template evaluation. *)

type t

val create : name:string -> kind:string -> t
(** A fresh node with no properties or children. *)

val name : t -> string
val kind : t -> string

val add_prop : t -> string -> string -> unit
(** [add_prop n key value] sets property [key]; replaces an existing value
    while keeping the original insertion position. O(p). *)

val prop : t -> string -> string option
(** O(p); allocates nothing, hit or miss. *)

val prop_or : t -> string -> default:string -> string
val props : t -> (string * string) list
(** All properties in insertion order. *)

val add_child : t -> group:string -> t -> unit
(** Append a child to the named group, creating the group if needed.
    O(g). *)

val group : t -> string -> t list
(** The children of a group, in insertion order; [[]] if absent. O(g)
    and allocation-free, except on the first read after an append. *)

val groups : t -> (string * t list) list
(** All groups in insertion order. *)

val iter : (t -> unit) -> t -> unit
(** Pre-order traversal over the whole tree. *)

val size : t -> int
(** Total number of nodes in the tree. *)

val equal : t -> t -> bool
(** Deep structural equality (names, kinds, props, groups). *)
