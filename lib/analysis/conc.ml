(* The C4xx concurrency pass. See conc.mli for the contract.

   Implementation notes. The file is parsed with compiler-libs
   ([Parse.implementation]) and walked twice:

   - pass 1 collects, per file, (a) every binding of a [Locked.create]
     result to a let-variable or record field, resolving the [~rank]
     annotation against [Locked.Rank.all] (C406 fires here when it does
     not resolve), and (b) every module-level [ref]/[Hashtbl.create]/
     [Buffer.create] binding (the C404 candidates);

   - pass 2 walks expressions carrying a stack of locks syntactically
     held at that point ([Locked.with_lock l (fun () -> ...)] scopes,
     including the [@@] and [|>] spellings), and fires C401/C402/C404/
     C405 against it.

   Locks are identified by the last component of the expression they
   are read from ([t.lock] and [mx.mx_lock] are the locks named "lock"
   and "mx_lock") — the codebase convention of one distinct field name
   per rank makes this precise in practice; a name bound to two
   different ranks in one file is demoted to "unknown rank" rather than
   guessed. *)

let codes = [ "C401"; "C402"; "C403"; "C404"; "C405"; "C406"; "C407"; "C408" ]

(* ---------------- reporting ---------------- *)

let loc_of (l : Location.t) file =
  let p = l.Location.loc_start in
  Idl.Loc.make ~file ~line:p.Lexing.pos_lnum
    ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol + 1)

let severity_of code =
  match Codes.find code with
  | Some i -> i.Codes.severity
  | None -> Idl.Diag.Error

let report reporter ~code ~loc msg =
  Idl.Diag.report reporter
    (Idl.Diag.make ~code ~severity:(severity_of code) ~loc msg)

(* ---------------- expression views ---------------- *)

open Parsetree

(* [app_view e] flattens [e] into (function path, argument list),
   normalizing [f @@ x], [x |> f] and curried application chains. *)
let rec app_view e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt, [])
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "@@"; _ }; _ },
        [ (_, f); (_, x) ] ) -> (
      match app_view f with
      | Some (p, a) -> Some (p, a @ [ (Asttypes.Nolabel, x) ])
      | None -> None)
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "|>"; _ }; _ },
        [ (_, x); (_, f) ] ) -> (
      match app_view f with
      | Some (p, a) -> Some (p, a @ [ (Asttypes.Nolabel, x) ])
      | None -> None)
  | Pexp_apply (f, args) -> (
      match app_view f with Some (p, a) -> Some (p, a @ args) | None -> None)
  | _ -> None

let last = function [] -> None | l -> Some (List.nth l (List.length l - 1))

(* The name a lock travels under: the last path component of the
   variable or field it is read from. *)
let rec lock_key e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> last (Longident.flatten txt)
  | Pexp_field (_, { txt; _ }) -> last (Longident.flatten txt)
  | Pexp_constraint (e, _) -> lock_key e
  | _ -> None

let pos_arg n args =
  let positional =
    List.filter_map
      (function Asttypes.Nolabel, e -> Some e | _ -> None)
      args
  in
  List.nth_opt positional n

let labelled_arg name args =
  List.find_map
    (function
      | Asttypes.Labelled l, e when l = name -> Some e
      | Asttypes.Optional l, e when l = name -> Some e
      | _ -> None)
    args

(* ---------------- per-file analysis state ---------------- *)

type state = {
  file : string;
  reporter : Idl.Diag.reporter;
  is_locked_impl : bool;  (* locked.ml itself: C403/C404 exempt *)
  mutable domain_shared : bool;
      (* file spawns domains or uses domain-local state (detected from
         the AST in pass 1, not the raw source, so an analyzer or doc
         string merely *mentioning* the wrappers does not count):
         gates C408 *)
  ranks : (string, int) Hashtbl.t;  (* lock key -> rank; absent = unknown *)
  ambiguous : (string, unit) Hashtbl.t;  (* key bound to two ranks *)
  mutables : (string, unit) Hashtbl.t;  (* module-level ref/Hashtbl/Buffer *)
  cond_owner : (string, string) Hashtbl.t;
      (* [Locked.new_cond l] bindings: condition key -> owning lock key,
         so a wait on an extra condition is checked against its lock *)
  shims : (string, string) Hashtbl.t;
      (* [let f .. g = Locked.with_lock l g] wrappers -> lock key, so the
         common per-module [with_mutex]/[with_lock] shims stay
         transparent to the scope tracking *)
  mutable held : (string * int option) list;  (* innermost first *)
}

let rank_value name = List.assoc_opt name Locked.Rank.all

(* The rank annotation of a [Locked.create] call: [Some (const, value)]
   when [~rank:...Rank.<const>] resolves in the table. *)
let rank_of_create args =
  match labelled_arg "rank" args with
  | None -> None
  | Some e -> (
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match last (Longident.flatten txt) with
          | Some const -> (
              match rank_value const with
              | Some v -> Some (const, Some v)
              | None -> Some (const, None))
          | None -> None)
      | _ -> Some ("<non-constant>", None))

let bind_lock st key rank =
  match Hashtbl.find_opt st.ranks key with
  | Some r when r <> rank -> Hashtbl.replace st.ambiguous key ()
  | _ -> Hashtbl.replace st.ranks key rank

(* ---------------- pass 1: bindings, C406 ---------------- *)

let scan_create st ~binding e =
  match app_view e with
  | Some ([ "Locked"; "new_cond" ], args) -> (
      match (binding, Option.bind (pos_arg 0 args) lock_key) with
      | Some key, Some owner -> Hashtbl.replace st.cond_owner key owner
      | _ -> ())
  | Some ([ "Locked"; "create" ], args) -> (
      match rank_of_create args with
      | Some (_const, Some v) -> (
          match binding with
          | Some key -> bind_lock st key v
          | None -> ())
      | Some (const, None) ->
          report st.reporter ~code:"C406" ~loc:(loc_of e.pexp_loc st.file)
            (Printf.sprintf
               "lock created with unregistered rank %S: ~rank must be a \
                constant from Locked.Rank (see Locked.Rank.all)"
               const)
      | None ->
          report st.reporter ~code:"C406" ~loc:(loc_of e.pexp_loc st.file)
            "lock created without a ~rank annotation resolvable against \
             Locked.Rank")
  | _ -> ()

let is_mutable_init e =
  match app_view e with
  | Some ([ "ref" ], _ :: _) -> true
  | Some ([ "Hashtbl"; "create" ], _ :: _) -> true
  | Some ([ "Buffer"; "create" ], _ :: _) -> true
  | _ -> false

let rec peel_constraint e =
  match e.pexp_desc with Pexp_constraint (e, _) -> peel_constraint e | _ -> e

let rec pat_var p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> pat_var p
  | _ -> None

(* Peel [fun a b -> body] into (body, parameter names). *)
let rec peel_fun e params =
  match e.pexp_desc with
  | Pexp_fun (Asttypes.Nolabel, None, p, body) ->
      peel_fun body (params @ [ pat_var p ])
  | _ -> (e, params)

let scan_shim st ~binding e =
  match binding with
  | None -> ()
  | Some fname -> (
      match peel_fun e [] with
      | body, (_ :: _ as params) -> (
          match (app_view body, last params) with
          | ( Some ([ "Locked"; "with_lock" ], [ (_, le); (_, fe) ]),
              Some (Some lastp) ) -> (
              match (fe.pexp_desc, lock_key le) with
              | Pexp_ident { txt = Longident.Lident f; _ }, Some key
                when f = lastp ->
                  Hashtbl.replace st.shims fname key
              | _ -> ())
          | _ -> ())
      | _ -> ())

(* pass 1 walks the whole AST for lock bindings (locks can be created
   inside functions), and only the structure spine for C404 candidates
   (module-level mutable state). *)
let pass1 st str =
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          let e = peel_constraint vb.pvb_expr in
          scan_create st ~binding:(pat_var vb.pvb_pat) e;
          scan_shim st ~binding:(pat_var vb.pvb_pat) e;
          Ast_iterator.default_iterator.value_binding self vb);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match Longident.flatten txt with
              | [ "Locked"; ("spawn_domain" | "new_domain_local" | "domain_local_get") ] ->
                  st.domain_shared <- true
              | _ -> ())
          | _ -> ());
          (match e.pexp_desc with
          | Pexp_record (fields, _) ->
              List.iter
                (fun ((lid : Longident.t Asttypes.loc), fe) ->
                  match last (Longident.flatten lid.Asttypes.txt) with
                  | Some key ->
                      scan_create st ~binding:(Some key) (peel_constraint fe)
                  | None -> ())
                fields
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.Ast_iterator.structure it str;
  (* module-level mutable containers, including in nested modules *)
  let rec spine items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match pat_var vb.pvb_pat with
                | Some v when is_mutable_init (peel_constraint vb.pvb_expr) ->
                    Hashtbl.replace st.mutables v ()
                | _ -> ())
              vbs
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
            spine s
        | _ -> ())
      items
  in
  spine str

(* ---------------- pass 2: scoped checks ---------------- *)

(* Syscalls and waits that can park the carrier thread. Non-blocking
   teardown ([Unix.shutdown], [Unix.close]) and clock reads are
   deliberately absent. *)
let blocking_calls =
  [
    [ "Unix"; "connect" ]; [ "Unix"; "accept" ]; [ "Unix"; "select" ];
    [ "Unix"; "read" ]; [ "Unix"; "write" ]; [ "Unix"; "single_write" ];
    [ "Unix"; "recv" ]; [ "Unix"; "send" ]; [ "Unix"; "recvfrom" ];
    [ "Unix"; "sendto" ]; [ "Unix"; "sleep" ]; [ "Unix"; "sleepf" ];
    [ "Unix"; "system" ]; [ "Unix"; "wait" ]; [ "Unix"; "waitpid" ];
    [ "Thread"; "delay" ]; [ "Thread"; "join" ];
  ]

let mutators_first_arg =
  [
    ([ ":=" ], "assignment");
    ([ "incr" ], "increment");
    ([ "decr" ], "decrement");
    ([ "Hashtbl"; "replace" ], "Hashtbl.replace");
    ([ "Hashtbl"; "add" ], "Hashtbl.add");
    ([ "Hashtbl"; "remove" ], "Hashtbl.remove");
    ([ "Hashtbl"; "reset" ], "Hashtbl.reset");
    ([ "Hashtbl"; "clear" ], "Hashtbl.clear");
    ([ "Hashtbl"; "filter_map_inplace" ], "Hashtbl.filter_map_inplace");
    ([ "Buffer"; "add_string" ], "Buffer.add_string");
    ([ "Buffer"; "add_char" ], "Buffer.add_char");
    ([ "Buffer"; "add_substring" ], "Buffer.add_substring");
    ([ "Buffer"; "add_buffer" ], "Buffer.add_buffer");
    ([ "Buffer"; "clear" ], "Buffer.clear");
    ([ "Buffer"; "reset" ], "Buffer.reset");
    ([ "Buffer"; "truncate" ], "Buffer.truncate");
  ]

let contains_atomic_get_of key e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match app_view ex with
          | Some ([ "Atomic"; "get" ], args) -> (
              match pos_arg 0 args with
              | Some a when lock_key a = Some key -> found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.Ast_iterator.expr it e;
  !found

let describe_held st =
  match st.held with
  | [] -> "no lock"
  | (k, r) :: _ ->
      Printf.sprintf "%S%s" k
        (match r with
        | Some v -> Printf.sprintf " (rank %d)" v
        | None -> " (unknown rank)")

let pass2 st str =
  let check_apply self e path args =
    match (path, args) with
    | [ "Locked"; "with_lock" ], _ -> (
        match (pos_arg 0 args, pos_arg 1 args) with
        | Some le, Some body ->
            let key =
              match lock_key le with Some k -> k | None -> "<expr>"
            in
            let rank =
              if Hashtbl.mem st.ambiguous key then None
              else Hashtbl.find_opt st.ranks key
            in
            (match (st.held, rank) with
            | (hk, Some hr) :: _, Some r when r >= hr ->
                report st.reporter ~code:"C401"
                  ~loc:(loc_of e.pexp_loc st.file)
                  (Printf.sprintf
                     "lock %S (rank %d) acquired while holding %S (rank %d): \
                      acquisition must strictly descend Locked.Rank"
                     key r hk hr)
            | _ -> ());
            self.Ast_iterator.expr self le;
            st.held <- (key, rank) :: st.held;
            Fun.protect
              ~finally:(fun () -> st.held <- List.tl st.held)
              (fun () -> self.Ast_iterator.expr self body);
            true
        | _ -> false)
    | [ "Locked"; ("wait" | "wait_until" | "wait_c" | "wait_until_c" as fn) ], _
      -> (
        (* A condition waits on its owning lock's mutex. *)
        let on_cond = fn = "wait_c" || fn = "wait_until_c" in
        let key le =
          match lock_key le with
          | Some c when on_cond -> Hashtbl.find_opt st.cond_owner c
          | k -> k
        in
        match (pos_arg 0 args, st.held) with
        | Some le, (hk, _) :: _ -> (
            match key le with
            | Some k when k <> hk ->
                report st.reporter ~code:"C402"
                  ~loc:(loc_of e.pexp_loc st.file)
                  (Printf.sprintf
                     "Locked.%s on foreign lock %S while holding %s: a \
                      wait must target the innermost held lock"
                     fn k (describe_held st));
                false
            | _ -> false)
        | _ -> false)
    | [ "Atomic"; "set" ], _ -> (
        match (pos_arg 0 args, pos_arg 1 args) with
        | Some a, Some v -> (
            match lock_key a with
            | Some key when contains_atomic_get_of key v ->
                report st.reporter ~code:"C405"
                  ~loc:(loc_of e.pexp_loc st.file)
                  (Printf.sprintf
                     "read-modify-write of atomic %S as separate Atomic.get \
                      / Atomic.set: racy — use Atomic.fetch_and_add or a \
                      compare_and_set loop"
                     key);
                false
            | _ -> false)
        | _ -> false)
    | [ shim ], _ when Hashtbl.mem st.shims shim && pos_arg 0 args <> None ->
        (* A local with_lock wrapper: the last positional argument is the
           closure that runs under the shim's lock. *)
        let key = Hashtbl.find st.shims shim in
        let rank =
          if Hashtbl.mem st.ambiguous key then None
          else Hashtbl.find_opt st.ranks key
        in
        (match (st.held, rank) with
        | (hk, Some hr) :: _, Some r when r >= hr ->
            report st.reporter ~code:"C401" ~loc:(loc_of e.pexp_loc st.file)
              (Printf.sprintf
                 "lock %S (rank %d) acquired via %s while holding %S (rank                   %d): acquisition must strictly descend Locked.Rank"
                 key r shim hk hr)
        | _ -> ());
        let positional =
          List.filter_map
            (function Asttypes.Nolabel, e -> Some e | _ -> None)
            args
        in
        let body = List.nth positional (List.length positional - 1) in
        List.iter
          (fun a -> if a != body then self.Ast_iterator.expr self a)
          positional;
        st.held <- (key, rank) :: st.held;
        Fun.protect
          ~finally:(fun () -> st.held <- List.tl st.held)
          (fun () -> self.Ast_iterator.expr self body);
        true
    | _ ->
        (if st.held <> [] && List.mem path blocking_calls then
           report st.reporter ~code:"C402" ~loc:(loc_of e.pexp_loc st.file)
             (Printf.sprintf
                "blocking call %s while holding %s: park the thread only \
                 with every lock released"
                (String.concat "." path) (describe_held st)));
        (if
           (not st.is_locked_impl) && st.held = []
           && Hashtbl.length st.mutables > 0
         then
           match
             List.find_opt (fun (p, _) -> p = path) mutators_first_arg
           with
           | Some (_, what) -> (
               match pos_arg 0 args with
               | Some target -> (
                   match target.pexp_desc with
                   | Pexp_ident { txt = Longident.Lident v; _ }
                     when Hashtbl.mem st.mutables v ->
                       report st.reporter ~code:"C404"
                         ~loc:(loc_of e.pexp_loc st.file)
                         (Printf.sprintf
                            "module-level mutable %S mutated (%s) outside \
                             any Locked.with_lock scope"
                            v what)
                   | _ -> ())
               | None -> ())
           | None -> ());
        (if st.domain_shared && (not st.is_locked_impl) && st.held = [] then
           match
             List.find_opt
               (fun (p, _) ->
                 p = path
                 && match p with "Hashtbl" :: _ -> true | _ -> false)
               mutators_first_arg
           with
           | Some (_, what) -> (
               match pos_arg 0 args with
               | Some target -> (
                   match target.pexp_desc with
                   | Pexp_field (_, { txt; _ }) -> (
                       match last (Longident.flatten txt) with
                       | Some field ->
                           report st.reporter ~code:"C408"
                             ~loc:(loc_of e.pexp_loc st.file)
                             (Printf.sprintf
                                "Hashtbl field %S mutated (%s) outside any \
                                 Locked.with_lock scope in a domain-shared \
                                 module: a concurrent resize is a data race \
                                 across domains — lock the mutation or use \
                                 an atomic immutable map"
                                field what)
                       | None -> ())
                   | _ -> ())
               | None -> ())
           | None -> ());
        false
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (* C403: raw primitives anywhere outside locked.ml. Reported
             at the identifier, so partial applications count too. *)
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } when not st.is_locked_impl -> (
              match Longident.flatten txt with
              | ("Mutex" | "Condition") :: _ :: _ ->
                  report st.reporter ~code:"C403"
                    ~loc:(loc_of e.pexp_loc st.file)
                    (Printf.sprintf
                       "raw %s primitive outside locked.ml: use Locked"
                       (String.concat "." (Longident.flatten txt)))
              | [ "Thread"; "create" ] ->
                  report st.reporter ~code:"C403"
                    ~loc:(loc_of e.pexp_loc st.file)
                    "raw Thread.create outside locked.ml: use Locked.spawn \
                     so the rank checker tracks the thread"
              | [ "Domain"; "spawn" ] ->
                  report st.reporter ~code:"C407"
                    ~loc:(loc_of e.pexp_loc st.file)
                    "raw Domain.spawn outside locked.ml: use \
                     Locked.spawn_domain so the rank checker tracks the \
                     domain and its held-rank stack is cleared on exit"
              | "Domain" :: "DLS" :: _ :: _ ->
                  report st.reporter ~code:"C407"
                    ~loc:(loc_of e.pexp_loc st.file)
                    "raw Domain.DLS outside locked.ml: use \
                     Locked.new_domain_local / Locked.domain_local_get"
              | _ -> ())
          | _ -> ());
          let handled =
            match app_view e with
            | Some (path, args) -> check_apply self e path args
            | None -> false
          in
          if not handled then Ast_iterator.default_iterator.expr self e);
    }
  in
  it.Ast_iterator.structure it str

(* ---------------- drivers ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file reporter path =
  let src = read_file path in
  match
    Parse.implementation (Lexing.from_string ~with_positions:true src)
  with
  | exception _ ->
      Idl.Diag.report reporter
        (Idl.Diag.make ~severity:Idl.Diag.Error
           ~loc:(Idl.Loc.make ~file:path ~line:1 ~col:1)
           "file does not parse as OCaml; concurrency analysis skipped")
  | str ->
      let st =
        {
          file = path;
          reporter;
          is_locked_impl = Filename.basename path = "locked.ml";
          domain_shared = false;
          ranks = Hashtbl.create 16;
          ambiguous = Hashtbl.create 4;
          mutables = Hashtbl.create 16;
          cond_owner = Hashtbl.create 4;
          shims = Hashtbl.create 4;
          held = [];
        }
      in
      pass1 st str;
      pass2 st str

let rec check_path reporter path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.iter (fun entry ->
           if
             entry <> "_build" && entry <> ""
             && not (String.length entry > 0 && entry.[0] = '.')
           then
             let sub = Filename.concat path entry in
             if Sys.is_directory sub then check_path reporter sub
             else if Filename.check_suffix sub ".ml" then
               check_file reporter sub)
  else check_file reporter path
