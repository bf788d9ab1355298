(* Lexer unit tests: token classification, literals, comments, errors. *)

let lex_all src =
  let lexbuf = Lexing.from_string src in
  let rec go acc =
    match Idl.Lexer.token lexbuf with
    | Idl.Token.EOF -> List.rev acc
    | tok -> go (tok :: acc)
  in
  go []

let check_tokens name src expected =
  Alcotest.(check int) (name ^ " count") (List.length expected) (List.length (lex_all src));
  List.iter2
    (fun want got ->
      Alcotest.(check string) name (Idl.Token.to_string want) (Idl.Token.to_string got))
    expected (lex_all src)

let test_keywords () =
  check_tokens "keywords" "module interface incopy oneway readonly"
    [
      Idl.Token.KW_module;
      Idl.Token.KW_interface;
      Idl.Token.KW_incopy;
      Idl.Token.KW_oneway;
      Idl.Token.KW_readonly;
    ]

let test_keywords_case_sensitive () =
  (* IDL keywords are case-sensitive: "Module" is an identifier. *)
  check_tokens "case" "Module TRUE true"
    [ Idl.Token.IDENT "Module"; Idl.Token.KW_true; Idl.Token.IDENT "true" ]

(* Every entry of the keyword table lexes to its own token, and
   [to_string] names it as that keyword. *)
let test_keyword_table () =
  List.iter
    (fun (name, kw) ->
      check_tokens name name [ kw ];
      Alcotest.(check string)
        (name ^ " to_string") (Printf.sprintf "keyword %S" name)
        (Idl.Token.to_string kw))
    Idl.Token.keyword_table

let test_keyword_near_misses () =
  List.iter
    (fun s -> check_tokens s s [ Idl.Token.IDENT s ])
    [ "Module"; "modules"; "in_"; "inx"; "TRUE_"; "True"; "sequence2" ]

(* The reference [of_ident] is the plain association-list lookup. *)
let reference_of_ident s =
  match List.assoc_opt s Idl.Token.keyword_table with
  | Some kw -> kw
  | None -> Idl.Token.IDENT s

(* A keyword, left as it is or changed in one place: a letter's case
   flipped, a character dropped, replaced or inserted, or a suffix. *)
let gen_keyword_like =
  QCheck.Gen.(
    let ident_char = oneofl (String.to_seq "aAeEinoOrtTuU_09" |> List.of_seq) in
    let* kw = oneofl (List.map fst Idl.Token.keyword_table) in
    let n = String.length kw in
    let* i = int_bound (n - 1) in
    let* c = ident_char in
    let flip ch =
      if Char.lowercase_ascii ch = ch then Char.uppercase_ascii ch
      else Char.lowercase_ascii ch
    in
    oneofl
      [
        kw;
        String.mapi (fun j ch -> if j = i then flip ch else ch) kw;
        String.sub kw 0 i ^ String.sub kw (i + 1) (n - i - 1);
        String.mapi (fun j ch -> if j = i then c else ch) kw;
        String.sub kw 0 i ^ String.make 1 c ^ String.sub kw i (n - i);
        kw ^ String.make 1 c;
      ])

let of_ident_prop =
  QCheck.Test.make ~count:2000 ~name:"of_ident agrees with the keyword list"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_keyword_like)
    (fun s -> Idl.Token.of_ident s = reference_of_ident s)

let test_integers () =
  check_tokens "ints" "0 42 0x2A 052"
    [
      Idl.Token.INT_LIT 0L;
      Idl.Token.INT_LIT 42L;
      Idl.Token.INT_LIT 42L;
      Idl.Token.INT_LIT 42L;
    ]

let test_floats () =
  check_tokens "floats" "1.5 .25 2e3 1.0E-2"
    [
      Idl.Token.FLOAT_LIT 1.5;
      Idl.Token.FLOAT_LIT 0.25;
      Idl.Token.FLOAT_LIT 2000.;
      Idl.Token.FLOAT_LIT 0.01;
    ]

let test_char_literals () =
  check_tokens "chars" {|'a' '\n' '\\' '\''|}
    [
      Idl.Token.CHAR_LIT 'a';
      Idl.Token.CHAR_LIT '\n';
      Idl.Token.CHAR_LIT '\\';
      Idl.Token.CHAR_LIT '\'';
    ]

let test_string_literals () =
  check_tokens "strings" {|"hello" "a\"b" "tab\there"|}
    [
      Idl.Token.STRING_LIT "hello";
      Idl.Token.STRING_LIT "a\"b";
      Idl.Token.STRING_LIT "tab\there";
    ]

let test_punctuation () =
  check_tokens "punct" ":: : ; { } ( ) < > << >> = , | ^ & ~ + - * / %"
    [
      Idl.Token.COLONCOLON; Idl.Token.COLON; Idl.Token.SEMI; Idl.Token.LBRACE;
      Idl.Token.RBRACE; Idl.Token.LPAREN; Idl.Token.RPAREN; Idl.Token.LT;
      Idl.Token.GT; Idl.Token.SHL; Idl.Token.SHR; Idl.Token.EQ; Idl.Token.COMMA;
      Idl.Token.PIPE; Idl.Token.CARET; Idl.Token.AMP; Idl.Token.TILDE;
      Idl.Token.PLUS; Idl.Token.MINUS; Idl.Token.STAR; Idl.Token.SLASH;
      Idl.Token.PERCENT;
    ]

let test_comments () =
  check_tokens "comments" "long // line comment\n/* block\ncomment */ short"
    [ Idl.Token.KW_long; Idl.Token.KW_short ]

let test_preprocessor_skipped () =
  check_tokens "cpp" "#include \"x.idl\"\nlong" [ Idl.Token.KW_long ]

let expect_lex_error name src =
  match lex_all src with
  | exception Idl.Diag.Idl_error _ -> ()
  | _ -> Alcotest.failf "%s: expected a lexical error" name

let test_errors () =
  expect_lex_error "unterminated comment" "/* never closed";
  expect_lex_error "unterminated string" "\"never closed";
  expect_lex_error "bad escape" {|"\q"|};
  expect_lex_error "stray char" "interface ?";
  expect_lex_error "newline in string" "\"a\nb\""

let test_line_tracking () =
  let lexbuf = Lexing.from_string "long\n\nshort" in
  Lexing.set_filename lexbuf "f.idl";
  ignore (Idl.Lexer.token lexbuf);
  ignore (Idl.Lexer.token lexbuf);
  let p = Lexing.lexeme_start_p lexbuf in
  Alcotest.(check int) "line" 3 p.Lexing.pos_lnum

(* Two domains lex string literals at once; each literal must come back
   as written, whatever the other domain is scanning. *)
let test_string_literals_across_domains () =
  let literal d i k = Printf.sprintf "d%d-spec%d-const%d-%s" d i k (String.make 40 'x') in
  let consts = 8 in
  let worker d () =
    for i = 1 to 300 do
      let src =
        String.concat "\n"
          (List.init consts (fun k ->
               Printf.sprintf "const string S%d = \"%s\";" k (literal d i k)))
      in
      List.iteri
        (fun k def ->
          match def with
          | Idl.Ast.D_const { cn_value = Idl.Ast.String_lit got; _ } ->
              if got <> literal d i k then
                Alcotest.failf "domain %d spec %d const %d: got %S" d i k got
          | _ -> Alcotest.fail "expected a string constant")
        (Idl.Parser.parse_string src)
    done
  in
  List.map (fun d -> Domain.spawn (worker d)) [ 1; 2 ] |> List.iter Domain.join

let () =
  Alcotest.run "lexer"
    [
      ( "tokens",
        [
          Alcotest.test_case "keywords" `Quick test_keywords;
          Alcotest.test_case "case-sensitivity" `Quick test_keywords_case_sensitive;
          Alcotest.test_case "integers" `Quick test_integers;
          Alcotest.test_case "floats" `Quick test_floats;
          Alcotest.test_case "char literals" `Quick test_char_literals;
          Alcotest.test_case "string literals" `Quick test_string_literals;
          Alcotest.test_case "punctuation" `Quick test_punctuation;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "preprocessor lines skipped" `Quick test_preprocessor_skipped;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "line tracking" `Quick test_line_tracking;
          Alcotest.test_case "string literals across domains" `Quick
            test_string_literals_across_domains;
        ] );
      ( "keywords",
        [
          Alcotest.test_case "every table entry" `Quick test_keyword_table;
          Alcotest.test_case "near-misses are identifiers" `Quick
            test_keyword_near_misses;
          QCheck_alcotest.to_alcotest of_ident_prop;
        ] );
    ]
