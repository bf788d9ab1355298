(** Concurrency analysis over the ORB's own OCaml sources (the C4xx
    family): a syntactic, per-file pass that checks the lock-rank
    discipline [Locked] documents, using the compiler's own parser.

    The checks mirror the runtime checker in [Locked] but run with no
    execution at all, so they also cover paths the test suite never
    drives:

    - [C401] nested [Locked.with_lock] acquisition that does not
      strictly descend the rank table ([Locked.Rank.all]);
    - [C402] a blocking call ([Unix] syscalls that can park the thread,
      [Thread.delay]/[join]) or a [Locked.wait]/[wait_c]/[wait_until]/
      [wait_until_c] on a {e foreign} lock while a lock is held (an
      extra condition is attributed to the lock passed to its
      [Locked.new_cond]);
    - [C403] raw [Mutex]/[Condition]/[Thread.create] primitives outside
      [locked.ml] (the one sanctioned implementation site);
    - [C404] module-level mutable state ([ref]/[Hashtbl]/[Buffer])
      mutated outside any [with_lock] scope, in every file (one that
      names no lock shares its top-level cells across domains too);
    - [C405] an [Atomic] read-modify-write written as separate
      [Atomic.get]/[Atomic.set] (racy; use [fetch_and_add] or a
      compare-and-set loop);
    - [C406] a [Locked.create] whose [~rank] is not a constant from the
      registered rank table.

    The pass is deliberately per-file and name-based: a lock is
    identified by the variable or record-field name it is bound to, and
    ranks resolve through [~rank:Locked.Rank.<x>] annotations seen in
    the same file. Wrapper functions hide nesting from it — the runtime
    checker covers those. Findings go to an {!Idl.Diag.reporter}, so
    [--lint-json], [--werror] and the 0/1/2 exit contract behave exactly
    as for [idlc lint]. *)

val codes : string list
(** The codes this pass can emit: C401..C406. *)

val check_file : Idl.Diag.reporter -> string -> unit
(** Analyze one [.ml] file. Parse failures are reported as an uncoded
    error diagnostic rather than raised. *)

val check_path : Idl.Diag.reporter -> string -> unit
(** Analyze a file, or recursively every [*.ml] under a directory
    (skipping [_build] and dot-directories). *)
