(** EST construction: flattens a {!Sem.spec} into the grouped property
    tree consumed by the template engine.

    The group and property vocabulary is the compiler/template contract —
    the same names the paper's templates use (Figs. 8–9):

    {2 Groups}

    At the root and inside each [Module] node: [moduleList],
    [interfaceList], [structList], [unionList], [enumList], [aliasList],
    [constList], [exceptionList]. Relative source order is preserved
    within each kind group (the defining property of the EST, Fig. 7).

    Inside an [Interface] node: [inheritedList] (direct bases),
    [allInheritedList] (transitive closure, base-first), [methodList],
    [attributeList], [allMethodList] / [allAttributeList] (including
    inherited, base-first — used by mappings that must flatten
    inheritance, such as the paper's IDL–Java mapping), plus the nested
    declaration groups above.

    Inside an [Operation] node: [paramList], [raisesList].
    Inside a [Struct]/[Exception] node: [memberList].
    Inside a [Union] node: [caseList]; each [Case] has [labelList].
    Inside an [Enum] node: [memberList].

    {2 Properties (selection)}

    Every named node carries [scopedName], [flatName] and [repoId].
    Type-bearing nodes carry [type] (the {!Ctype} encoding), [typeName]
    (flat name of a named type, or [""]), [typeKind], [isVariable]
    ([^"true"] or [""]) and [seqElemType] (the element type's encoding
    when the type is a sequence, else [""]). Parameters carry
    [paramName], [paramMode] and [defaultParam] (a {!Value} encoding, or
    [""] — compare [@if ${defaultParam} == ""] in Fig. 9). Attributes
    carry [attributeQualifier] ([^"readonly"] or [""]). Interfaces carry
    [Parent] (flat name of the first base, or [""]) exactly as in Fig. 8.

    {2 Sharing}

    Each entity is built once: its node is the same value in its
    module's groups and in the root's flattened groups. Likewise the
    [Operation] and [Attribute] nodes in an interface's [allMethodList]
    and [allAttributeList] are the ancestors' own [methodList] and
    [attributeList] nodes, not copies. Nothing changes a node other
    than the root after [of_spec] returns, so the sharing is invisible
    to templates and dumps.

    {2 Cost}

    Linear in the declarations and members of the spec, for inheritance
    graphs of bounded depth: each declaration is built once, and the
    flattened lists cost one cons per inherited entry. *)

val of_spec : Sem.spec -> Node.t
(** Build the EST for an analyzed specification. The root node has kind
    ["Root"] and name [""]. *)
