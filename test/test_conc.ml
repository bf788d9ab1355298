(* The concurrency subsystem's two checkers, tested against each other:
   the static C4xx pass (lib/analysis/conc.ml) over a seeded fixture
   corpus with golden diagnostics, and the runtime lock-rank checker in
   Locked against live inversions. *)

module Diag = Idl.Diag

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---------------- static pass: corpus goldens ---------------- *)

let corpus_dir = "conc"

let corpus_cases () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort compare

let test_corpus () =
  let cases = corpus_cases () in
  (* One fixture per C4xx code, plus two more C404 shapes (the
     unlocked stats counter, and an ambient setting saved and restored
     in a file that names no concurrency primitive) and the second C402
     shape (a deadline wait on a foreign lock). *)
  Alcotest.(check int) "fixture count" 11 (List.length cases);
  List.iter
    (fun case ->
      let path = Filename.concat corpus_dir case in
      let reporter = Diag.reporter () in
      Analysis.Conc.check_file reporter path;
      let expected = read_file (Filename.chop_suffix path ".ml" ^ ".expected") in
      Alcotest.(check string) case expected (Diag.render_text reporter);
      (* Each fixture is named after its code and provokes exactly it. *)
      let code = String.sub case 0 4 in
      Alcotest.(check (list string))
        (case ^ " emits only " ^ code)
        [ code ]
        (List.map (fun d -> d.Diag.code) (Diag.diagnostics reporter)))
    cases

let test_corpus_codes_known () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " in table") true (Analysis.Codes.is_known code);
      match Analysis.Codes.explain code with
      | Some text ->
          Alcotest.(check bool) (code ^ " has rationale") true
            (String.length text > 80)
      | None -> Alcotest.fail (code ^ " has no --explain page"))
    Analysis.Conc.codes

(* The repository's own runtime must be clean: the same gate as
   `dune build @analyze`, asserted from the inside so a failure names
   the diagnostics. *)
let test_lib_clean () =
  let reporter = Diag.reporter () in
  Analysis.Conc.check_path reporter "../lib";
  Alcotest.(check string) "no findings over lib/" "" (Diag.render_text reporter)

let test_werror_and_json () =
  (* A warning-severity finding (C405) exits 0 normally, 1 under
     --werror; the JSON rendering carries the code. *)
  let path = Filename.concat corpus_dir "C405_split_rmw.ml" in
  let plain = Diag.reporter () in
  Analysis.Conc.check_file plain path;
  Alcotest.(check bool) "warning only" false (Diag.has_errors plain);
  Alcotest.(check int) "one warning" 1 (Diag.warning_count plain);
  let werror = Diag.reporter ~werror:true () in
  Analysis.Conc.check_file werror path;
  Alcotest.(check bool) "werror promotes" true (Diag.has_errors werror);
  let json = Diag.render_json plain in
  Alcotest.(check bool) "json has code" true
    (let needle = {|"C405"|} in
     let rec find i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let test_disable () =
  let reporter = Diag.reporter () in
  Diag.set_enabled reporter "C404" false;
  Analysis.Conc.check_file reporter (Filename.concat corpus_dir "C404_unlocked.ml");
  Alcotest.(check int) "disabled code dropped" 0
    (List.length (Diag.diagnostics reporter))

(* An extra condition waits on the mutex of the lock it was made from:
   a timed wait on it under a nested inner lock is the same C402. *)
let test_cond_wait_owner () =
  let tmp = Filename.temp_file "conc_cond" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc
        {|let outer = Locked.create ~name:"o" ~rank:Locked.Rank.pool
let inner = Locked.create ~name:"i" ~rank:Locked.Rank.mux
let space = Locked.new_cond outer
let right at = Locked.with_lock outer (fun () -> Locked.wait_until_c space at)
let wrong at =
  Locked.with_lock outer (fun () ->
      Locked.with_lock inner (fun () -> Locked.wait_until_c space at))
|};
      close_out oc;
      let reporter = Diag.reporter () in
      Analysis.Conc.check_file reporter tmp;
      Alcotest.(check (list (pair string int)))
        "one C402, on the nested wait"
        [ ("C402", 7) ]
        (List.map
           (fun d -> (d.Diag.code, d.Diag.loc.Idl.Loc.line))
           (Diag.diagnostics reporter)))

let test_unparsable () =
  let tmp = Filename.temp_file "conc_bad" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "let = syntax error here";
      close_out oc;
      let reporter = Diag.reporter () in
      Analysis.Conc.check_file reporter tmp;
      Alcotest.(check bool) "parse failure reported, not raised" true
        (Diag.has_errors reporter))

(* ---------------- runtime checker ---------------- *)

(* These tests manage the global checking flag explicitly so they stay
   meaningful even if the suite's ORB_LOCK_CHECK environment changes. *)
let with_checking f =
  let was = Locked.checking () in
  Locked.set_checking true;
  Locked.reset_violations ();
  Fun.protect
    ~finally:(fun () ->
      Locked.reset_violations ();
      Locked.set_checking was)
    f

let test_runtime_inversion () =
  with_checking (fun () ->
      let outer = Locked.create ~name:"t.outer" ~rank:Locked.Rank.pool in
      let inner = Locked.create ~name:"t.inner" ~rank:Locked.Rank.metrics in
      (* Descending acquisition is the sanctioned order. *)
      Locked.with_lock outer (fun () ->
          Locked.with_lock inner (fun () -> ()));
      Alcotest.(check (list string)) "clean order: no violations" []
        (Locked.violations ());
      (* The seeded inversion: climbing the lattice must trip. *)
      (match
         Locked.with_lock inner (fun () ->
             Locked.with_lock outer (fun () -> ()))
       with
      | () -> Alcotest.fail "rank inversion not detected"
      | exception Locked.Rank_violation _ -> ());
      Alcotest.(check bool) "violation recorded" true
        (Locked.violations () <> []))

let test_runtime_equal_rank () =
  with_checking (fun () ->
      let a = Locked.create ~name:"t.eq.a" ~rank:Locked.Rank.breaker in
      let b = Locked.create ~name:"t.eq.b" ~rank:Locked.Rank.breaker in
      match Locked.with_lock a (fun () -> Locked.with_lock b (fun () -> ())) with
      | () -> Alcotest.fail "equal-rank acquisition not detected"
      | exception Locked.Rank_violation _ -> ())

let test_runtime_foreign_wait () =
  with_checking (fun () ->
      let a = Locked.create ~name:"t.fw.a" ~rank:Locked.Rank.pool in
      let b = Locked.create ~name:"t.fw.b" ~rank:Locked.Rank.metrics in
      match Locked.with_lock a (fun () -> Locked.wait b) with
      | () -> Alcotest.fail "foreign wait not detected"
      | exception Locked.Rank_violation _ -> ())

let test_runtime_reacquire_after_release () =
  with_checking (fun () ->
      let a = Locked.create ~name:"t.ra.a" ~rank:Locked.Rank.pool in
      let b = Locked.create ~name:"t.ra.b" ~rank:Locked.Rank.pool in
      (* Sequential same-rank acquisitions are fine: the stack empties
         between them. *)
      Locked.with_lock a (fun () -> ());
      Locked.with_lock b (fun () -> ());
      Alcotest.(check (list string)) "no violations" [] (Locked.violations ()))

let test_runtime_spawn_clean_stack () =
  with_checking (fun () ->
      let l = Locked.create ~name:"t.spawn" ~rank:Locked.Rank.metrics in
      let saw = Atomic.make false in
      let th =
        Locked.spawn "test.spawnee" (fun () ->
            Locked.with_lock l (fun () -> Atomic.set saw true))
      in
      Thread.join th;
      Alcotest.(check bool) "spawned thread ran under checker" true
        (Atomic.get saw);
      Alcotest.(check (list string)) "no violations" [] (Locked.violations ()))

let test_checker_off_by_default () =
  let was = Locked.checking () in
  Locked.set_checking false;
  Fun.protect
    ~finally:(fun () -> Locked.set_checking was)
    (fun () ->
      let outer = Locked.create ~name:"t.off.o" ~rank:Locked.Rank.pool in
      let inner = Locked.create ~name:"t.off.i" ~rank:Locked.Rank.metrics in
      (* With the checker off the inversion is not watched for — one
         boolean load and no bookkeeping on the acquisition path. *)
      Locked.with_lock inner (fun () -> Locked.with_lock outer (fun () -> ()));
      Alcotest.(check (list string)) "nothing recorded" [] (Locked.violations ()))

let test_rank_table_strictly_ordered () =
  (* The table is the single source of truth for both checkers: names
     unique, values unique, and the documented lattice order intact. *)
  let names = List.map fst Locked.Rank.all in
  let values = List.map snd Locked.Rank.all in
  Alcotest.(check int) "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check int) "no duplicate ranks"
    (List.length values)
    (List.length (List.sort_uniq compare values));
  Alcotest.(check bool) "communicator outermost" true
    (List.for_all (fun v -> v <= Locked.Rank.communicator) values);
  Alcotest.(check bool) "sinks innermost" true
    (List.for_all (fun v -> v >= Locked.Rank.sinks) values)

let test_no_dead_ranks () =
  (* A rank no lock under lib/ is created with is a dead row of the
     lattice. [metrics] is retired but kept: the fixtures and tests
     still name it. *)
  let rec sources dir =
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then sources path
           else if Filename.check_suffix path ".ml" then
             [ In_channel.with_open_bin path In_channel.input_all ]
           else [])
  in
  let texts = sources "../lib" in
  let is_ident_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  let mentions needle text =
    let n = String.length needle and len = String.length text in
    let rec from i =
      i + n <= len
      && ((String.sub text i n = needle
          && (i + n = len || not (is_ident_char text.[i + n])))
         || from (i + 1))
    in
    from 0
  in
  let dead =
    List.filter
      (fun (name, _) ->
        name <> "metrics"
        && not (List.exists (mentions ("Rank." ^ name)) texts))
      Locked.Rank.all
  in
  Alcotest.(check (list string)) "ranks no lib/ lock uses" []
    (List.map fst dead)

let () =
  Alcotest.run "conc"
    [
      ( "static",
        [
          Alcotest.test_case "corpus goldens" `Quick test_corpus;
          Alcotest.test_case "codes known + explained" `Quick
            test_corpus_codes_known;
          Alcotest.test_case "lib/ is clean" `Quick test_lib_clean;
          Alcotest.test_case "werror + json" `Quick test_werror_and_json;
          Alcotest.test_case "disable code" `Quick test_disable;
          Alcotest.test_case "timed wait on a condition's owner" `Quick
            test_cond_wait_owner;
          Alcotest.test_case "unparsable input" `Quick test_unparsable;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "inversion trips" `Quick test_runtime_inversion;
          Alcotest.test_case "equal rank trips" `Quick test_runtime_equal_rank;
          Alcotest.test_case "foreign wait trips" `Quick
            test_runtime_foreign_wait;
          Alcotest.test_case "sequential same rank ok" `Quick
            test_runtime_reacquire_after_release;
          Alcotest.test_case "spawn starts clean" `Quick
            test_runtime_spawn_clean_stack;
          Alcotest.test_case "off by default" `Quick
            test_checker_off_by_default;
          Alcotest.test_case "rank table well-formed" `Quick
            test_rank_table_strictly_ordered;
          Alcotest.test_case "no dead ranks" `Quick test_no_dead_ranks;
        ] );
    ]
