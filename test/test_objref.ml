(* Stringified object references (paper Section 3.1). *)

let paper_example = "@tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0"

let test_paper_example () =
  let r = Orb.Objref.of_string paper_example in
  Alcotest.(check string) "proto" "tcp" r.Orb.Objref.proto;
  Alcotest.(check string) "host" "galaxy.nec.com" r.Orb.Objref.host;
  Alcotest.(check int) "port" 1234 r.Orb.Objref.port;
  Alcotest.(check string) "oid" "9876" r.Orb.Objref.oid;
  Alcotest.(check string) "type" "IDL:Heidi/A:1.0" r.Orb.Objref.type_id;
  Alcotest.(check string) "print" paper_example (Orb.Objref.to_string r)

let test_type_id_with_colons () =
  (* The repository ID part contains ':' characters; only '#' separates. *)
  let r = Orb.Objref.of_string "@mem:local:7#bootstrap#IDL:X/Y:2.3" in
  Alcotest.(check string) "type" "IDL:X/Y:2.3" r.Orb.Objref.type_id;
  Alcotest.(check string) "oid" "bootstrap" r.Orb.Objref.oid

let test_malformed () =
  List.iter
    (fun s ->
      match Orb.Objref.of_string_opt s with
      | None -> ()
      | Some _ -> Alcotest.failf "expected parse failure for %S" s)
    [
      "";
      "tcp:h:1#o#t";
      "@tcp:h#o#t";
      "@tcp:h:notaport#o#t";
      "@tcp:h:70000#o#t";
      "@tcp:h:1#o";
      "@tcp:h:1#o#t#extra";
      "@:h:1#o#t";
      "@tcp::1#o#t";
    ];
  match Orb.Objref.of_string "@tcp:h#o#t" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_string should raise"

let test_endpoint () =
  let r = Orb.Objref.of_string paper_example in
  Alcotest.(check (triple string string int)) "endpoint"
    ("tcp", "galaxy.nec.com", 1234) (Orb.Objref.endpoint r)

(* ---------------- replicated endpoint sets ---------------- *)

let multi_example = "@tcp:h1:1234,tcp:h2:1234,tcp:h3:4321#9876#IDL:Heidi/A:1.0"

let test_multi_parse_print () =
  let r = Orb.Objref.of_string multi_example in
  Alcotest.(check bool) "is_multi" true (Orb.Objref.is_multi r);
  Alcotest.(check (list (triple string string int)))
    "endpoints"
    [ ("tcp", "h1", 1234); ("tcp", "h2", 1234); ("tcp", "h3", 4321) ]
    (Orb.Objref.endpoints r);
  Alcotest.(check (triple string string int))
    "primary" ("tcp", "h1", 1234) (Orb.Objref.endpoint r);
  Alcotest.(check string) "oid" "9876" r.Orb.Objref.oid;
  Alcotest.(check string) "print" multi_example (Orb.Objref.to_string r)

let test_single_endpoint_unchanged () =
  (* The historical grammar must survive the extension untouched: a
     single-endpoint reference prints with no comma and is not multi. *)
  let r = Orb.Objref.of_string paper_example in
  Alcotest.(check bool) "is_multi" false (Orb.Objref.is_multi r);
  Alcotest.(check (list (triple string string int)))
    "endpoints" [ ("tcp", "galaxy.nec.com", 1234) ] (Orb.Objref.endpoints r);
  Alcotest.(check string) "print" paper_example (Orb.Objref.to_string r)

let test_at_endpoint () =
  let r = Orb.Objref.of_string multi_example in
  let v = Orb.Objref.at_endpoint r ("tcp", "h2", 1234) in
  Alcotest.(check bool) "single view" false (Orb.Objref.is_multi v);
  Alcotest.(check string) "view prints single"
    "@tcp:h2:1234#9876#IDL:Heidi/A:1.0" (Orb.Objref.to_string v);
  Alcotest.(check string) "oid preserved" r.Orb.Objref.oid v.Orb.Objref.oid

let test_multi_malformed () =
  List.iter
    (fun s ->
      match Orb.Objref.of_string_opt s with
      | None -> ()
      | Some _ -> Alcotest.failf "expected parse failure for %S" s)
    [
      (* duplicate endpoint *)
      "@tcp:h1:1#o#t" ^ ",tcp:h1:1#o#t";
      "@tcp:h1:1,tcp:h1:1#o#t";
      (* empty slots in the list *)
      "@tcp:h1:1,#o#t";
      "@,tcp:h1:1#o#t";
      "@tcp:h1:1,,tcp:h2:1#o#t";
      (* malformed member *)
      "@tcp:h1:1,tcp:h2#o#t";
      "@tcp:h1:1,tcp:h2:notaport#o#t";
      "@tcp:h1:1,:h2:1#o#t";
      "@tcp:h1:1,tcp::1#o#t";
    ]

let test_make_multi_validation () =
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  expect_invalid "empty set" (fun () ->
      Orb.Objref.make_multi ~endpoints:[] ~oid:"o" ~type_id:"t");
  expect_invalid "duplicate" (fun () ->
      Orb.Objref.make_multi
        ~endpoints:[ ("tcp", "h", 1); ("tcp", "h", 1) ]
        ~oid:"o" ~type_id:"t");
  expect_invalid "comma in host" (fun () ->
      Orb.Objref.make_multi
        ~endpoints:[ ("tcp", "h,x", 1) ]
        ~oid:"o" ~type_id:"t");
  expect_invalid "hash in proto" (fun () ->
      Orb.Objref.make_multi
        ~endpoints:[ ("t#cp", "h", 1) ]
        ~oid:"o" ~type_id:"t");
  expect_invalid "empty host" (fun () ->
      Orb.Objref.make_multi ~endpoints:[ ("tcp", "", 1) ] ~oid:"o" ~type_id:"t");
  expect_invalid "bad port" (fun () ->
      Orb.Objref.make_multi
        ~endpoints:[ ("tcp", "h", 70000) ]
        ~oid:"o" ~type_id:"t");
  expect_invalid "with_endpoints duplicate" (fun () ->
      Orb.Objref.with_endpoints
        (Orb.Objref.of_string paper_example)
        [ ("tcp", "h", 1); ("tcp", "h", 1) ])

let test_make_validation () =
  (* [make] runs [make_multi]'s checks, and both refuse what the parser
     would read back differently: "@tcp:::1:80#o#t" parses as proto
     "tcp::" and host "1". *)
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | r ->
        Alcotest.failf "%s: expected Invalid_argument, got %s" label
          (Orb.Objref.to_string r)
  in
  let make ?(host = "h") ?(port = 80) ?(oid = "o") ?(type_id = "t") () =
    Orb.Objref.make ~proto:"tcp" ~host ~port ~oid ~type_id
  in
  expect_invalid "colon in host" (fun () -> make ~host:"::1" ());
  expect_invalid "port 70000" (fun () -> make ~port:70000 ());
  expect_invalid "hash in host" (fun () -> make ~host:"a#b" ());
  expect_invalid "hash in oid" (fun () -> make ~oid:"x#y" ());
  expect_invalid "hash in type id" (fun () -> make ~type_id:"IDL:A#B:1.0" ());
  expect_invalid "make_multi, colon in host" (fun () ->
      Orb.Objref.make_multi ~endpoints:[ ("tcp", "::1", 80) ] ~oid:"o"
        ~type_id:"t");
  expect_invalid "at_endpoint, colon in host" (fun () ->
      Orb.Objref.at_endpoint (make ()) ("tcp", "::1", 80))

let test_to_string_cache_multi () =
  (* The memoized printer must not conflate a multi-endpoint reference
     with its single-endpoint primary view (same oid/type), nor go
     stale across [with_endpoints]. *)
  let r = Orb.Objref.of_string multi_example in
  let single = Orb.Objref.at_endpoint r (Orb.Objref.endpoint r) in
  ignore (Orb.Objref.to_string r);
  Alcotest.(check string) "single view after multi print"
    "@tcp:h1:1234#9876#IDL:Heidi/A:1.0"
    (Orb.Objref.to_string single);
  Alcotest.(check string) "multi print stable" multi_example
    (Orb.Objref.to_string r);
  let narrowed = Orb.Objref.with_endpoints r [ ("tcp", "h2", 1234) ] in
  Alcotest.(check string) "narrowed prints narrowed"
    "@tcp:h2:1234#9876#IDL:Heidi/A:1.0"
    (Orb.Objref.to_string narrowed);
  (* Round-trip through the cache-heavy path: print, parse, print. *)
  Alcotest.(check string) "reparse stable" multi_example
    (Orb.Objref.to_string (Orb.Objref.of_string (Orb.Objref.to_string r)))

let test_noncanonical_port () =
  (* The port is canonical decimal, the only form the printer writes:
     every other spelling of 80 is refused, so a parsed reference's
     text is always its printed form. *)
  List.iter
    (fun port ->
      let s = Printf.sprintf "@tcp:h:%s#o#t" port in
      match Orb.Objref.of_string_opt s with
      | None -> ()
      | Some _ -> Alcotest.failf "expected parse failure for %S" s)
    [ "0x50"; "0o120"; "0b1010000"; "0u80"; "8_0"; "+80"; "080" ];
  List.iter
    (fun s ->
      match Orb.Objref.of_string_opt s with
      | Some r -> Alcotest.(check string) "prints back" s (Orb.Objref.to_string r)
      | None -> Alcotest.failf "expected %S to parse" s)
    [ "@tcp:h:0#o#t"; "@tcp:h:65535#o#t" ]

let test_to_string_allocation_free () =
  let r = Orb.Objref.of_string multi_example in
  let single = Orb.Objref.make ~proto:"tcp" ~host:"h" ~port:1 ~oid:"o" ~type_id:"t" in
  ignore (Orb.Objref.to_string r);
  ignore (Orb.Objref.to_string single);
  let len = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let s = Orb.Objref.to_string (if i land 1 = 0 then r else single) in
    len := !len + String.length s
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "printed" true (!len > 0);
  Alcotest.(check (float 0.)) "minor words for 10,000 prints" 0. words

let gen_objref =
  QCheck.Gen.(
    let* proto = oneofl [ "tcp"; "mem"; "udp" ] in
    let* host = oneofl [ "localhost"; "galaxy.nec.com"; "10.0.0.1"; "h-1.example" ] in
    let* port = int_bound 65535 in
    let* oid = oneofl [ "1"; "9876"; "bootstrap"; "a.b.c" ] in
    let* type_id = oneofl [ "IDL:Heidi/A:1.0"; "IDL:X:2.0"; "t" ] in
    return (Orb.Objref.make ~proto ~host ~port ~oid ~type_id))

let roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"objref to_string |> of_string round-trips"
    (QCheck.make ~print:Orb.Objref.to_string gen_objref)
    (fun r -> Orb.Objref.equal r (Orb.Objref.of_string (Orb.Objref.to_string r)))

(* Generated endpoint sets: 1-5 distinct endpoints drawn from a pool
   wide enough to exercise list order, single-member sets, and hosts
   that stress the separator grammar. *)
let gen_multi_objref =
  QCheck.Gen.(
    let gen_ep =
      let* proto = oneofl [ "tcp"; "mem"; "udp" ] in
      let* host = oneofl [ "h1"; "h2"; "10.0.0.1"; "r-3.example"; "local" ] in
      let* port = map (fun p -> p + 1) (int_bound 65534) in
      return (proto, host, port)
    in
    let* n = int_range 1 5 in
    let* eps = list_repeat n gen_ep in
    let distinct = List.sort_uniq compare eps in
    (* Dedup preserving first-occurrence order, so the generator never
       trips make_multi's duplicate rejection. *)
    let ordered =
      List.filter (fun e -> List.mem e distinct)
        (List.fold_left
           (fun acc e -> if List.mem e acc then acc else acc @ [ e ])
           [] eps)
    in
    let* oid = oneofl [ "1"; "9876"; "bootstrap" ] in
    let* type_id = oneofl [ "IDL:Heidi/A:1.0"; "IDL:X:2.0" ] in
    return (Orb.Objref.make_multi ~endpoints:ordered ~oid ~type_id))

let multi_roundtrip_prop =
  QCheck.Test.make ~count:500
    ~name:"multi-endpoint objref round-trips with endpoint set intact"
    (QCheck.make ~print:Orb.Objref.to_string gen_multi_objref)
    (fun r ->
      let r' = Orb.Objref.of_string (Orb.Objref.to_string r) in
      Orb.Objref.equal r r'
      && Orb.Objref.endpoints r = Orb.Objref.endpoints r'
      && Orb.Objref.is_multi r = Orb.Objref.is_multi r')

(* Printed references with one endpoint's port respelled: each
   spelling is either refused or parses to a reference that prints back
   byte for byte. Canonical respellings keep the property from holding
   vacuously. *)
let gen_port_mutant =
  QCheck.Gen.(
    let* r = oneof [ gen_objref; gen_multi_objref ] in
    let s = Orb.Objref.to_string r in
    let hash = String.index s '#' in
    let segs = String.split_on_char ',' (String.sub s 1 (hash - 1)) in
    let* i = int_bound (List.length segs - 1) in
    let* n = int_bound 70000 in
    let* spelling =
      oneofl
        [
          string_of_int n;
          "0" ^ string_of_int n;
          "+" ^ string_of_int n;
          "-" ^ string_of_int n;
          Printf.sprintf "0x%x" n;
          Printf.sprintf "0X%X" n;
          Printf.sprintf "0o%o" n;
          "0b1010000";
          "0u" ^ string_of_int n;
          string_of_int n ^ "_";
          "1_" ^ string_of_int n;
          " " ^ string_of_int n;
          string_of_int n ^ "a";
          "";
        ]
    in
    let respell j seg =
      if j <> i then seg
      else String.sub seg 0 (String.rindex seg ':' + 1) ^ spelling
    in
    return
      ("@" ^ String.concat "," (List.mapi respell segs)
      ^ String.sub s hash (String.length s - hash)))

let port_mutant_prop =
  QCheck.Test.make ~count:1000
    ~name:"an accepted reference prints back byte for byte"
    (QCheck.make ~print:Fun.id gen_port_mutant)
    (fun s ->
      match Orb.Objref.of_string_opt s with
      | None -> true
      | Some r -> Orb.Objref.to_string r = s)

(* Constructor inputs drawn mostly from clean pools, and sometimes from
   an alphabet rich in the grammar's separators, so both accepted and
   refused references occur. *)
let gen_constructed =
  QCheck.Gen.(
    let field clean =
      frequency
        [
          (3, oneofl clean);
          (1, string_size ~gen:(oneofl [ 'a'; '1'; ':'; '#'; ','; '@'; '.' ])
                (int_bound 4));
        ]
    in
    let gen_ep =
      let* proto = field [ "tcp"; "mem"; "faulty:mem" ] in
      let* host = field [ "h1"; "10.0.0.1"; "local" ] in
      let* port = oneofl [ -1; 0; 80; 65535; 65536; 70000 ] in
      return (proto, host, port)
    in
    let* eps = list_size (int_range 1 3) gen_ep in
    let* oid = field [ "1"; "bootstrap"; "" ] in
    let* type_id = field [ "IDL:Heidi/A:1.0"; "t" ] in
    let proto, host, port = List.hd eps in
    oneofl
      [
        (fun () -> Orb.Objref.make ~proto ~host ~port ~oid ~type_id);
        (fun () -> Orb.Objref.make_multi ~endpoints:eps ~oid ~type_id);
        (fun () ->
          Orb.Objref.with_endpoints
            (Orb.Objref.make ~proto:"tcp" ~host:"h" ~port:1 ~oid:"o" ~type_id:"t")
            eps);
        (fun () ->
          Orb.Objref.at_endpoint
            (Orb.Objref.make ~proto:"tcp" ~host:"h" ~port:1 ~oid:"o" ~type_id:"t")
            (proto, host, port));
      ])

let constructed_prop =
  QCheck.Test.make ~count:1000
    ~name:"every reference a constructor accepts parses back from its text"
    (QCheck.make
       ~print:(fun f ->
         match f () with
         | r -> Orb.Objref.to_string r
         | exception Invalid_argument m -> "refused: " ^ m)
       gen_constructed)
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> true
      | r -> (
          match Orb.Objref.of_string_opt (Orb.Objref.to_string r) with
          | Some r' -> Orb.Objref.equal r r'
          | None -> false))

let () =
  Alcotest.run "objref"
    [
      ( "parse-print",
        [
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "colons in type id" `Quick test_type_id_with_colons;
          Alcotest.test_case "malformed references" `Quick test_malformed;
          Alcotest.test_case "endpoint" `Quick test_endpoint;
          Alcotest.test_case "non-canonical port is refused" `Quick
            test_noncanonical_port;
          Alcotest.test_case "to_string allocates nothing" `Quick
            test_to_string_allocation_free;
          QCheck_alcotest.to_alcotest roundtrip_prop;
          QCheck_alcotest.to_alcotest port_mutant_prop;
        ] );
      ( "endpoint sets",
        [
          Alcotest.test_case "multi parse-print" `Quick test_multi_parse_print;
          Alcotest.test_case "single endpoint unchanged" `Quick
            test_single_endpoint_unchanged;
          Alcotest.test_case "at_endpoint view" `Quick test_at_endpoint;
          Alcotest.test_case "malformed endpoint sets" `Quick test_multi_malformed;
          Alcotest.test_case "make_multi validation" `Quick
            test_make_multi_validation;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "to_string cache with multi refs" `Quick
            test_to_string_cache_multi;
          QCheck_alcotest.to_alcotest multi_roundtrip_prop;
          QCheck_alcotest.to_alcotest constructed_prop;
        ] );
    ]
