(** The diagnostic-code table: every stable code `idlc` can emit, its
    default severity, a one-line summary, and the long-form rationale
    printed by [idlc lint --explain CODE].

    Code families:
    - [E0xx] — front-end errors (lexer, parser, resolver). Always errors.
    - [W1xx] — lint findings over the resolved spec. Warnings by default;
      promoted to errors under [--werror]; per-code [--disable]/[--enable].
    - [T2xx] — template static-checker findings.
    - [V3xx] — interface-evolution findings against an IR snapshot
      ([W310] marks benign evolution).
    - [C4xx] — concurrency findings over the ORB's own OCaml sources
      ([idlc analyze-conc], implemented in {!Conc}). *)

type info = {
  code : string;
  severity : Idl.Diag.severity;
  summary : string;
  explain : string;
}

let e code summary explain = { code; severity = Idl.Diag.Error; summary; explain }
let w code summary explain = { code; severity = Idl.Diag.Warning; summary; explain }

let all : info list =
  [
    e "E001" "lexical or syntax error"
      "The IDL source could not be tokenized or parsed. The compiler \
       aborts at the first syntax error (there is no parser recovery), so \
       fix it and re-run to see any later problems.";
    e "E002" "redefinition of a name"
      "A name was defined twice in the same scope (or a forward interface \
       declaration conflicts with a different kind of entity). CORBA IDL \
       scopes admit a single definition per identifier; the note attached \
       to the diagnostic points at the previous definition.";
    e "E003" "unresolved name"
      "A scoped name did not resolve in the current scope, any inherited \
       interface scope, or any enclosing scope. Also reported when an \
       interface was forward-declared, never defined, and then used in a \
       position that needs the definition.";
    e "E004" "invalid inheritance"
      "An interface inherits from something that is not a defined \
       interface: a non-interface entity, a forward-declared interface \
       with no definition, or itself through a definition cycle.";
    e "E005" "oneway constraint violation"
      "A oneway operation must have a void return type, only 'in' (or \
       'incopy') parameters, and no raises clause — there is no reply \
       message to carry results or exceptions (CORBA 2.0 §3.10; the wire \
       protocols in this repo enforce the same).";
    e "E006" "constant expression error"
      "A constant expression is ill-typed, overflows its declared type, \
       divides by zero, or shifts out of range. Constants are folded at \
       compile time, so the error is reported at the declaration.";
    e "E007" "invalid union"
      "A union has an invalid discriminator type (must be integer, char, \
       boolean or enum), duplicate case labels, or more than one default \
       case.";
    e "E008" "invalid use of void"
      "'void' is only a return type: it cannot be typedef'd and cannot \
       type a parameter, attribute, struct/exception member, union case, \
       or sequence element.";
    e "E009" "duplicate member"
      "Two members of one construct share a name: operation parameters, \
       struct/exception fields, enum members, union cases, inherited \
       interface lists, or an operation/attribute redefining an inherited \
       one (CORBA forbids overriding).";
    e "E010" "repository-ID collision"
      "Two distinct declarations map to the same OMG repository ID \
       (IDL:<prefix>/<scoped name>:1.0). This usually means a '#pragma \
       prefix' re-creates a path that also exists as real module nesting. \
       Colliding IDs break interface identity: object references, IR \
       lookups and dispatch all key on the repository ID.";
    e "E011" "wrong kind of entity referenced"
      "A name resolved, but to the wrong kind of entity for its position: \
       a raises clause naming a non-exception, a type position naming a \
       constant, a constant expression naming an interface, or a scoped \
       path traversing a non-scope.";
    e "E012" "invalid default parameter"
      "Default parameter values (the paper's HeidiRMI extension, §3.1) \
       are only allowed on 'in'/'incopy' parameters, and — as in C++ — \
       every parameter after the first defaulted one must also have a \
       default.";
    w "W101" "case-insensitive name collision"
      "Two names in the same scope differ only in character case. CORBA \
       identifier lookup is case-insensitive (IDL §3.2.3), so OMG IDL \
       rejects such pairs; many compilers accept them and then generate \
       broken code for case-insensitive targets. Rename one of them.";
    w "W103" "incopy applied to a non-interface type"
      "The 'incopy' mode (paper §3.1) means pass-by-value for object \
       references; for every other type it is identical to 'in'. Applying \
       it to a non-interface type is almost always a leftover from a type \
       change and has no effect.";
    w "W104" "unused declaration"
      "A type, constant or exception is declared but never referenced by \
       any operation, attribute, member, raises clause or other \
       declaration in the file. Interfaces and modules are entry points \
       and are never flagged. The check is conservative: if any reference \
       might use the name, it is not reported.";
    w "W105" "identifier collides with a target-language keyword"
      "The identifier is a reserved word in at least one mapping's target \
       language, so that mapping cannot emit it verbatim (the diagnostic \
       names the mappings). The paper's position is that mappings are \
       data; this check consults each registered mapping's reserved-word \
       table so custom mappings get the same protection.";
    w "W106" "ambiguous diamond inheritance"
      "An interface inherits the same operation or attribute name from \
       two unrelated base interfaces. References to the name through the \
       derived interface are ambiguous, and generated dispatch code picks \
       one arbitrarily. (Inheriting one definition along two paths of a \
       diamond is fine and not reported.)";
    w "W107" "forward-declared interface never defined"
      "An interface was forward-declared but no definition follows in the \
       file. References to it as an object-reference type still compile, \
       but no code is generated for it.";
    e "T201" "template syntax error"
      "The template failed to parse: unbalanced @foreach/@end or \
       @if/@else/@fi, an unknown directive, an unterminated ${...} \
       substitution, or a malformed condition.";
    e "T202" "unbound template variable"
      "A ${var} substitution names a property that no node kind on the \
       enclosing @foreach stack defines (checked against the EST property \
       environment — the Fig. 8 schema). At generation time this would \
       abort with an evaluation error mid-output; the checker finds it \
       without running the template.";
    e "T203" "unknown map function"
      "A '-map var Map::Fn' declaration or '${var:Map::Fn}' inline map \
       names a map function that no registered mapping provides.";
    e "T204" "unknown group in @foreach"
      "An @foreach names a child group that the current node kind does \
       not define (e.g. 'paramList' directly under an interface). The \
       loop body would silently run zero times at generation time.";
    e "T205" "@openfile with unbound variable"
      "An @openfile filename substitutes a variable that is not bound at \
       that point of the template, so generation would abort before \
       producing the file.";
    e "V301" "wire-breaking: removed"
      "An interface, operation or attribute present in the IR snapshot is \
       gone. Clients built against the snapshot will send requests the \
       server no longer dispatches.";
    e "V302" "wire-breaking: changed signature"
      "An operation or attribute changed its parameter types, modes or \
       count, return type, oneway-ness, raises clause, or attribute type. \
       Marshaled requests/replies from snapshot-era peers no longer match \
       the new signature.";
    e "V303" "wire-breaking: changed repository ID"
      "An interface's repository ID changed (renamed scope or a '#pragma \
       prefix' change). Repository IDs are the identity carried in object \
       references; existing references stop resolving.";
    e "V304" "wire-breaking: reordered operations"
      "The surviving operations of an interface appear in a different \
       order than in the snapshot. Protocols that address operations by \
       index (the paper's compact ESIOP-style encodings) dispatch to the \
       wrong method.";
    e "C401" "lock acquisition violates the rank order"
      "A Locked.with_lock nests inside another while the inner lock's \
       rank is not strictly below the outer's (the table is \
       Locked.Rank.all; higher ranks are outermost). Two threads taking \
       the same pair of locks in opposite orders deadlock; the rank \
       lattice makes cycles impossible by construction. The check is \
       syntactic and per-file — nesting hidden behind wrapper functions \
       is covered by the runtime checker (ORB_LOCK_CHECK=1) instead. \
       Fix by reordering the acquisitions, or by restructuring so the \
       inner work happens after the outer lock is released (collect \
       under the lock, act outside it).";
    e "C402" "blocking call while holding a lock"
      "A call that can park the thread — a blocking Unix syscall \
       (connect, accept, select, read, write, sleep, waitpid, ...), \
       Thread.delay/join, or a Locked.wait/wait_c/wait_until/\
       wait_until_c on a lock other than the innermost one held — \
       appears inside a with_lock scope. Every other thread needing \
       that lock stalls for the full duration, and a wait on a foreign \
       lock releases the wrong mutex, sleeping with the held one still \
       taken. To wait for a condition with a deadline, never sleep \
       under the lock: wait on the innermost held lock with \
       Locked.wait_until l deadline (or wait_until_c on one of its \
       conditions) and re-check the predicate on every return — \
       whoever changes the state broadcasts, and the deadline service \
       broadcasts when the deadline passes. Pool.submit and the mux \
       hold in orb.ml are the pattern. A deliberate sleep \
       (a retry backoff) belongs outside every lock. Non-blocking \
       teardown (Unix.shutdown, Unix.close) is deliberately exempt.";
    w "C403" "raw threading primitive outside locked.ml"
      "Mutex, Condition or Thread.create is used directly. Raw \
       primitives bypass the rank table: the runtime checker cannot \
       see the acquisition and the C401 analysis cannot rank it. Use \
       Locked.create/with_lock/wait for locks and Locked.spawn for \
       threads (it also clears the spawned thread's rank stack and \
       contains stray exceptions). locked.ml itself is the one \
       sanctioned implementation site.";
    w "C404" "module-level mutable state mutated outside a lock"
      "A top-level ref, Hashtbl or Buffer is mutated outside any \
       with_lock scope, in any file, whether or not it names a lock. \
       Module-level state is reachable from every thread and domain, \
       so an unlocked := or Hashtbl.replace is a data race under \
       OCaml's memory model (a save/restore wrapper is no exception: \
       one domain's restore undoes another's setting). Guard the \
       mutation with the owning lock, make the cell an Atomic.t, or \
       replace the table with an immutable map behind an Atomic.t \
       updated by compare_and_set (the shape Metrics.find_or_create \
       uses).";
    w "C405" "atomic read-modify-write split into get and set"
      "An Atomic.set whose value expression reads the same atomic with \
       Atomic.get: between the read and the write another thread's \
       update is silently lost. Use Atomic.incr/fetch_and_add for \
       integers, or a compare_and_set retry loop for anything else \
       (see Metrics.atomic_add_float for the sanctioned shape).";
    e "C406" "lock created without a registered rank"
      "A Locked.create whose ~rank argument is not a constant from \
       Locked.Rank (the central rank table). Unranked locks cannot be \
       ordered against the rest of the lattice, so neither the static \
       C401 check nor the runtime checker can reason about them. Add \
       the lock to Locked.Rank.all at the right height (outermost = \
       highest) and reference it as ~rank:Locked.Rank.<name>.";
    w "C407" "raw domain primitive outside locked.ml"
      "Domain.spawn or Domain.DLS is used directly. Raw domain spawns \
       bypass Locked.spawn_domain, so the runtime rank checker never \
       clears the new domain's held-rank stack and stray exceptions \
       escape the domain body; raw DLS keys scatter per-domain state \
       the sanctioned wrappers (Locked.new_domain_local / \
       Locked.domain_local_get) keep auditable in one place. locked.ml \
       itself is the one sanctioned implementation site. Domain.join \
       and Domain.recommended_domain_count are deliberately exempt — \
       they synchronize with or size against domains but create none.";
    w "C408" "unguarded Hashtbl mutation in a domain-shared module"
      "A Hashtbl field is mutated outside any with_lock scope in a \
       module that spawns domains or uses domain-local state. Under \
       systhreads an unlocked probe-then-insert was merely sloppy — \
       the runtime lock serialized the resize — but once the module's \
       code runs on multiple domains, a concurrent resize during the \
       mutation is a data race under OCaml's memory model (torn bucket \
       array reads). Guard every mutation with the owning lock, or \
       replace the table with an immutable map behind an Atomic.t \
       updated by compare_and_set (the shape Metrics.find_or_create \
       uses). Helper functions documented as caller-holds-lock are \
       still flagged: in a domain-shared module the proof burden \
       belongs next to the mutation.";
    w "W310" "benign interface evolution"
      "An addition relative to the IR snapshot: a new interface, \
       operation, attribute or parameter default. Old clients are \
       unaffected; new features are invisible to them.";
  ]

let find code = List.find_opt (fun i -> i.code = code) all

let is_known code = find code <> None

let explain code =
  match find code with
  | None -> None
  | Some i -> Some (Printf.sprintf "%s: %s\n\n%s\n" i.code i.summary i.explain)

(* A terse one-line-per-code table (used by --explain with no argument). *)
let table () =
  all
  |> List.map (fun i ->
         Printf.sprintf "%-5s %-7s %s" i.code
           (match i.severity with Idl.Diag.Error -> "error" | _ -> "warning")
           i.summary)
  |> String.concat "\n"
