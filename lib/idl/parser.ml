open Ast

(* A token stream with one-token lookahead over the ocamllex lexer. *)
module Stream_ = struct
  type t = {
    lexbuf : Lexing.lexbuf;
    mutable tok : Token.t;
    mutable loc : Loc.t;
    reporter : Diag.reporter option;  (* where [Diag.emit] reports *)
  }

  let current_loc lexbuf =
    let p = Lexing.lexeme_start_p lexbuf in
    Loc.make ~file:p.Lexing.pos_fname ~line:p.Lexing.pos_lnum
      ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol + 1)

  let make ~reporter ~filename src =
    let lexbuf = Lexing.from_string src in
    Lexing.set_filename lexbuf filename;
    let tok = Lexer.token lexbuf in
    { lexbuf; tok; loc = current_loc lexbuf; reporter }

  let peek t = t.tok
  let loc t = t.loc

  let advance t =
    t.tok <- Lexer.token t.lexbuf;
    t.loc <- current_loc t.lexbuf

  let error t fmt = Diag.error ~code:"E001" ~loc:t.loc fmt

  let expect t want =
    if t.tok = want then advance t
    else
      error t "expected %s but found %s" (Token.to_string want)
        (Token.to_string t.tok)

  (* '>>' closes two nested type brackets (sequence<sequence<long>>):
     consume one '>' and leave a '>' as the current token. *)
  let expect_gt t =
    match t.tok with
    | Token.GT -> advance t
    | Token.SHR -> t.tok <- Token.GT
    | other ->
        error t "expected %s but found %s" (Token.to_string Token.GT)
          (Token.to_string other)

  let ident t =
    match t.tok with
    | Token.IDENT s ->
        advance t;
        s
    | other -> error t "expected an identifier but found %s" (Token.to_string other)
end

open Stream_

(* ---------------- scoped names ---------------- *)

let parse_scoped_name st =
  let loc = Stream_.loc st in
  let absolute =
    if peek st = Token.COLONCOLON then (
      advance st;
      true)
    else false
  in
  let first = ident st in
  let rec more acc =
    if peek st = Token.COLONCOLON then (
      advance st;
      let next = ident st in
      more (next :: acc))
    else List.rev acc
  in
  { absolute; parts = more [ first ]; sn_loc = loc }

(* ---------------- constant expressions ----------------

   Precedence (lowest to highest), as in CORBA IDL:
     |  ^  &  <<,>>  +,-  *,/,%  unary  primary *)

let rec parse_const_expr st = parse_or_expr st

and parse_or_expr st =
  let lhs = parse_xor_expr st in
  if peek st = Token.PIPE then (
    advance st;
    Binary (Or, lhs, parse_or_expr st))
  else lhs

and parse_xor_expr st =
  let lhs = parse_and_expr st in
  if peek st = Token.CARET then (
    advance st;
    Binary (Xor, lhs, parse_xor_expr st))
  else lhs

and parse_and_expr st =
  let lhs = parse_shift_expr st in
  if peek st = Token.AMP then (
    advance st;
    Binary (And, lhs, parse_and_expr st))
  else lhs

and parse_shift_expr st =
  let lhs = parse_add_expr st in
  match peek st with
  | Token.SHL ->
      advance st;
      Binary (Shift_left, lhs, parse_shift_expr st)
  | Token.SHR ->
      advance st;
      Binary (Shift_right, lhs, parse_shift_expr st)
  | _ -> lhs

and parse_add_expr st =
  let rec go lhs =
    match peek st with
    | Token.PLUS ->
        advance st;
        go (Binary (Add, lhs, parse_mul_expr st))
    | Token.MINUS ->
        advance st;
        go (Binary (Sub, lhs, parse_mul_expr st))
    | _ -> lhs
  in
  go (parse_mul_expr st)

and parse_mul_expr st =
  let rec go lhs =
    match peek st with
    | Token.STAR ->
        advance st;
        go (Binary (Mul, lhs, parse_unary_expr st))
    | Token.SLASH ->
        advance st;
        go (Binary (Div, lhs, parse_unary_expr st))
    | Token.PERCENT ->
        advance st;
        go (Binary (Mod, lhs, parse_unary_expr st))
    | _ -> lhs
  in
  go (parse_unary_expr st)

and parse_unary_expr st =
  match peek st with
  | Token.MINUS ->
      advance st;
      Unary (Neg, parse_unary_expr st)
  | Token.PLUS ->
      advance st;
      Unary (Pos, parse_unary_expr st)
  | Token.TILDE ->
      advance st;
      Unary (Bit_not, parse_unary_expr st)
  | _ -> parse_primary_expr st

and parse_primary_expr st =
  match peek st with
  | Token.INT_LIT i ->
      advance st;
      Int_lit i
  | Token.FLOAT_LIT f ->
      advance st;
      Float_lit f
  | Token.CHAR_LIT c ->
      advance st;
      Char_lit c
  | Token.STRING_LIT s ->
      advance st;
      String_lit s
  | Token.KW_true ->
      advance st;
      Bool_lit true
  | Token.KW_false ->
      advance st;
      Bool_lit false
  | Token.LPAREN ->
      advance st;
      let e = parse_const_expr st in
      expect st Token.RPAREN;
      e
  | Token.IDENT _ | Token.COLONCOLON -> Name_ref (parse_scoped_name st)
  | other ->
      Stream_.error st "expected a constant expression but found %s"
        (Token.to_string other)

(* ---------------- type specifications ---------------- *)

let rec parse_type_spec st =
  match peek st with
  | Token.KW_void ->
      advance st;
      Void
  | Token.KW_short ->
      advance st;
      Short
  | Token.KW_long ->
      advance st;
      if peek st = Token.KW_long then (
        advance st;
        Long_long)
      else Long
  | Token.KW_unsigned -> (
      advance st;
      match peek st with
      | Token.KW_short ->
          advance st;
          Unsigned_short
      | Token.KW_long ->
          advance st;
          if peek st = Token.KW_long then (
            advance st;
            Unsigned_long_long)
          else Unsigned_long
      | other ->
          Stream_.error st "expected 'short' or 'long' after 'unsigned', found %s"
            (Token.to_string other))
  | Token.KW_float ->
      advance st;
      Float
  | Token.KW_double ->
      advance st;
      Double
  | Token.KW_boolean ->
      advance st;
      Boolean
  | Token.KW_char ->
      advance st;
      Char
  | Token.KW_octet ->
      advance st;
      Octet
  | Token.KW_any ->
      advance st;
      Any
  | Token.KW_string ->
      advance st;
      if peek st = Token.LT then (
        advance st;
        let bound = parse_positive_int st in
        Stream_.expect_gt st;
        String (Some bound))
      else String None
  | Token.KW_sequence ->
      advance st;
      expect st Token.LT;
      let elem = parse_type_spec st in
      let bound =
        if peek st = Token.COMMA then (
          advance st;
          Some (parse_positive_int st))
        else None
      in
      Stream_.expect_gt st;
      Sequence (elem, bound)
  | Token.IDENT _ | Token.COLONCOLON -> Named (parse_scoped_name st)
  | other ->
      Stream_.error st "expected a type specification but found %s"
        (Token.to_string other)

and parse_positive_int st =
  match peek st with
  | Token.INT_LIT i when i > 0L && i <= Int64.of_int max_int ->
      advance st;
      Int64.to_int i
  | other ->
      Stream_.error st "expected a positive integer bound but found %s"
        (Token.to_string other)

(* ---------------- declarations ---------------- *)

let parse_declarators st =
  let first = ident st in
  let rec more acc =
    if peek st = Token.COMMA then (
      advance st;
      more (ident st :: acc))
    else List.rev acc
  in
  more [ first ]

let parse_struct_members st =
  (* Members until the closing brace: [type declarators ';']* *)
  let rec go acc =
    if peek st = Token.RBRACE then List.rev acc
    else
      let loc = Stream_.loc st in
      let ty = parse_type_spec st in
      let names = parse_declarators st in
      expect st Token.SEMI;
      go ({ sm_type = ty; sm_names = names; sm_loc = loc } :: acc)
  in
  go []

let parse_struct st =
  let loc = Stream_.loc st in
  expect st Token.KW_struct;
  let name = ident st in
  expect st Token.LBRACE;
  let members = parse_struct_members st in
  expect st Token.RBRACE;
  { st_name = name; st_members = members; st_loc = loc }

let parse_enum st =
  let loc = Stream_.loc st in
  expect st Token.KW_enum;
  let name = ident st in
  expect st Token.LBRACE;
  let first = ident st in
  let rec more acc =
    if peek st = Token.COMMA then (
      advance st;
      (* Allow a trailing comma before '}'. *)
      if peek st = Token.RBRACE then List.rev acc else more (ident st :: acc))
    else List.rev acc
  in
  let members = more [ first ] in
  expect st Token.RBRACE;
  { en_name = name; en_members = members; en_loc = loc }

let parse_union st =
  let loc = Stream_.loc st in
  expect st Token.KW_union;
  let name = ident st in
  expect st Token.KW_switch;
  expect st Token.LPAREN;
  let disc = parse_type_spec st in
  expect st Token.RPAREN;
  expect st Token.LBRACE;
  let parse_case () =
    let cloc = Stream_.loc st in
    let rec labels acc =
      match peek st with
      | Token.KW_case ->
          advance st;
          let v = parse_const_expr st in
          expect st Token.COLON;
          labels (Case_value v :: acc)
      | Token.KW_default ->
          advance st;
          expect st Token.COLON;
          labels (Case_default :: acc)
      | _ -> List.rev acc
    in
    let ls = labels [] in
    if ls = [] then
      Stream_.error st "expected 'case' or 'default' in union %s" name;
    let ty = parse_type_spec st in
    let n = ident st in
    expect st Token.SEMI;
    { uc_labels = ls; uc_type = ty; uc_name = n; uc_loc = cloc }
  in
  let rec cases acc =
    if peek st = Token.RBRACE then List.rev acc else cases (parse_case () :: acc)
  in
  let cs = cases [] in
  expect st Token.RBRACE;
  { un_name = name; un_disc = disc; un_cases = cs; un_loc = loc }

let parse_typedef st =
  let loc = Stream_.loc st in
  expect st Token.KW_typedef;
  let ty = parse_type_spec st in
  let names = parse_declarators st in
  { td_type = ty; td_names = names; td_loc = loc }

let parse_const st =
  let loc = Stream_.loc st in
  expect st Token.KW_const;
  let ty = parse_type_spec st in
  let name = ident st in
  expect st Token.EQ;
  let value = parse_const_expr st in
  { cn_type = ty; cn_name = name; cn_value = value; cn_loc = loc }

let parse_exception st =
  let loc = Stream_.loc st in
  expect st Token.KW_exception;
  let name = ident st in
  expect st Token.LBRACE;
  let members = parse_struct_members st in
  expect st Token.RBRACE;
  { ex_name = name; ex_members = members; ex_loc = loc }

let parse_attribute st =
  let loc = Stream_.loc st in
  let readonly =
    if peek st = Token.KW_readonly then (
      advance st;
      true)
    else false
  in
  expect st Token.KW_attribute;
  let ty = parse_type_spec st in
  let names = parse_declarators st in
  expect st Token.SEMI;
  { at_readonly = readonly; at_type = ty; at_names = names; at_loc = loc }

let parse_param st =
  let loc = Stream_.loc st in
  let mode =
    match peek st with
    | Token.KW_in ->
        advance st;
        In
    | Token.KW_out ->
        advance st;
        Out
    | Token.KW_inout ->
        advance st;
        Inout
    | Token.KW_incopy ->
        advance st;
        Incopy
    | other ->
        Stream_.error st
          "expected a parameter mode ('in', 'out', 'inout' or 'incopy') but \
           found %s"
          (Token.to_string other)
  in
  let ty = parse_type_spec st in
  let name = ident st in
  let default =
    if peek st = Token.EQ then (
      advance st;
      Some (parse_const_expr st))
    else None
  in
  (match (mode, default) with
  | (Out | Inout), Some _ ->
      Diag.emit st.reporter ~code:"E012" ~loc
        "default values are only allowed on 'in' and 'incopy' parameters"
  | _ -> ());
  { p_mode = mode; p_type = ty; p_name = name; p_default = default; p_loc = loc }

let parse_operation st =
  let loc = Stream_.loc st in
  let oneway =
    if peek st = Token.KW_oneway then (
      advance st;
      true)
    else false
  in
  let ret = parse_type_spec st in
  let name = ident st in
  expect st Token.LPAREN;
  let params =
    if peek st = Token.RPAREN then []
    else
      let first = parse_param st in
      let rec more acc =
        if peek st = Token.COMMA then (
          advance st;
          more (parse_param st :: acc))
        else List.rev acc
      in
      more [ first ]
  in
  expect st Token.RPAREN;
  let raises =
    if peek st = Token.KW_raises then (
      advance st;
      expect st Token.LPAREN;
      let first = parse_scoped_name st in
      let rec more acc =
        if peek st = Token.COMMA then (
          advance st;
          more (parse_scoped_name st :: acc))
        else List.rev acc
      in
      let names = more [ first ] in
      expect st Token.RPAREN;
      names)
    else []
  in
  expect st Token.SEMI;
  (* Default parameters must be trailing, as in C++. *)
  let seen_default = ref false in
  List.iter
    (fun p ->
      match p.p_default with
      | Some _ -> seen_default := true
      | None ->
          if !seen_default then
            Diag.emit st.reporter ~code:"E012" ~loc:p.p_loc
              "parameter %S without a default value follows a parameter with one"
              p.p_name)
    params;
  if oneway && ret <> Void then
    Diag.emit st.reporter ~code:"E005" ~loc
      "oneway operation %S must have a 'void' return type" name;
  {
    op_oneway = oneway;
    op_return = ret;
    op_name = name;
    op_params = params;
    op_raises = raises;
    op_loc = loc;
  }

let parse_export st =
  match peek st with
  | Token.KW_typedef ->
      let d = parse_typedef st in
      expect st Token.SEMI;
      Ex_typedef d
  | Token.KW_struct ->
      let d = parse_struct st in
      expect st Token.SEMI;
      Ex_struct d
  | Token.KW_union ->
      let d = parse_union st in
      expect st Token.SEMI;
      Ex_union d
  | Token.KW_enum ->
      let d = parse_enum st in
      expect st Token.SEMI;
      Ex_enum d
  | Token.KW_const ->
      let d = parse_const st in
      expect st Token.SEMI;
      Ex_const d
  | Token.KW_exception ->
      let d = parse_exception st in
      expect st Token.SEMI;
      Ex_except d
  | Token.KW_readonly | Token.KW_attribute -> Ex_attr (parse_attribute st)
  | _ -> Ex_op (parse_operation st)

let parse_interface st =
  let loc = Stream_.loc st in
  expect st Token.KW_interface;
  let name = ident st in
  match peek st with
  | Token.SEMI ->
      advance st;
      D_forward (name, loc)
  | _ ->
      let inherits =
        if peek st = Token.COLON then (
          advance st;
          let first = parse_scoped_name st in
          let rec more acc =
            if peek st = Token.COMMA then (
              advance st;
              more (parse_scoped_name st :: acc))
            else List.rev acc
          in
          more [ first ])
        else []
      in
      expect st Token.LBRACE;
      let rec exports acc =
        if peek st = Token.RBRACE then List.rev acc
        else exports (parse_export st :: acc)
      in
      let body = exports [] in
      expect st Token.RBRACE;
      expect st Token.SEMI;
      D_interface
        { if_name = name; if_inherits = inherits; if_exports = body; if_loc = loc }

let rec parse_definition st =
  match peek st with
  | Token.PRAGMA_PREFIX p ->
      let loc = Stream_.loc st in
      advance st;
      D_pragma_prefix (p, loc)
  | Token.KW_module ->
      let loc = Stream_.loc st in
      advance st;
      let name = ident st in
      expect st Token.LBRACE;
      let rec defs acc =
        if peek st = Token.RBRACE then List.rev acc
        else defs (parse_definition st :: acc)
      in
      let body = defs [] in
      expect st Token.RBRACE;
      expect st Token.SEMI;
      D_module (name, body, loc)
  | Token.KW_interface -> parse_interface st
  | Token.KW_typedef ->
      let d = parse_typedef st in
      expect st Token.SEMI;
      D_typedef d
  | Token.KW_struct ->
      let d = parse_struct st in
      expect st Token.SEMI;
      D_struct d
  | Token.KW_union ->
      let d = parse_union st in
      expect st Token.SEMI;
      D_union d
  | Token.KW_enum ->
      let d = parse_enum st in
      expect st Token.SEMI;
      D_enum d
  | Token.KW_const ->
      let d = parse_const st in
      expect st Token.SEMI;
      D_const d
  | Token.KW_exception ->
      let d = parse_exception st in
      expect st Token.SEMI;
      D_except d
  | other ->
      Stream_.error st "expected a definition but found %s" (Token.to_string other)

let parse_string ?reporter ?(filename = "<string>") src =
  let st = Stream_.make ~reporter ~filename src in
  let rec defs acc =
    if peek st = Token.EOF then List.rev acc else defs (parse_definition st :: acc)
  in
  defs []

let parse_file ?reporter path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse_string ?reporter ~filename:path content
