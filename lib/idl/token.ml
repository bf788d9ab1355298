(** Lexical tokens produced by {!Lexer}. *)

type t =
  | IDENT of string
  | INT_LIT of int64
  | FLOAT_LIT of float
  | CHAR_LIT of char
  | STRING_LIT of string
  | PRAGMA_PREFIX of string
      (** [#pragma prefix "..."] — scopes subsequent repository IDs. *)
  (* Keywords *)
  | KW_module
  | KW_interface
  | KW_const
  | KW_typedef
  | KW_struct
  | KW_union
  | KW_switch
  | KW_case
  | KW_default
  | KW_enum
  | KW_sequence
  | KW_string
  | KW_boolean
  | KW_char
  | KW_octet
  | KW_short
  | KW_long
  | KW_float
  | KW_double
  | KW_unsigned
  | KW_void
  | KW_any
  | KW_readonly
  | KW_attribute
  | KW_oneway
  | KW_in
  | KW_out
  | KW_inout
  | KW_incopy  (** HeidiRMI extension: pass-by-value qualifier. *)
  | KW_raises
  | KW_exception
  | KW_true
  | KW_false
  (* Punctuation *)
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LT
  | GT
  | SEMI
  | COLON
  | COLONCOLON
  | COMMA
  | EQ
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | PIPE
  | CARET
  | AMP
  | TILDE
  | SHL
  | SHR
  | EOF

let keyword_table : (string * t) list =
  [
    ("module", KW_module);
    ("interface", KW_interface);
    ("const", KW_const);
    ("typedef", KW_typedef);
    ("struct", KW_struct);
    ("union", KW_union);
    ("switch", KW_switch);
    ("case", KW_case);
    ("default", KW_default);
    ("enum", KW_enum);
    ("sequence", KW_sequence);
    ("string", KW_string);
    ("boolean", KW_boolean);
    ("char", KW_char);
    ("octet", KW_octet);
    ("short", KW_short);
    ("long", KW_long);
    ("float", KW_float);
    ("double", KW_double);
    ("unsigned", KW_unsigned);
    ("void", KW_void);
    ("any", KW_any);
    ("readonly", KW_readonly);
    ("attribute", KW_attribute);
    ("oneway", KW_oneway);
    ("in", KW_in);
    ("out", KW_out);
    ("inout", KW_inout);
    ("incopy", KW_incopy);
    ("raises", KW_raises);
    ("exception", KW_exception);
    ("TRUE", KW_true);
    ("FALSE", KW_false);
  ]

(* Every identifier the lexer reads goes through [of_ident], so the list
   is hashed once here. The table is only read after module
   initialisation, which makes concurrent lookups from several domains
   safe. *)
let keywords = Hashtbl.of_seq (List.to_seq keyword_table)

let of_ident s =
  match Hashtbl.find_opt keywords s with Some kw -> kw | None -> IDENT s

let to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT_LIT i -> Printf.sprintf "integer literal %Ld" i
  | FLOAT_LIT f -> Printf.sprintf "float literal %g" f
  | CHAR_LIT c -> Printf.sprintf "character literal %C" c
  | STRING_LIT s -> Printf.sprintf "string literal %S" s
  | PRAGMA_PREFIX p -> Printf.sprintf "#pragma prefix %S" p
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LT -> "'<'"
  | GT -> "'>'"
  | SEMI -> "';'"
  | COLON -> "':'"
  | COLONCOLON -> "'::'"
  | COMMA -> "','"
  | EQ -> "'='"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | PIPE -> "'|'"
  | CARET -> "'^'"
  | AMP -> "'&'"
  | TILDE -> "'~'"
  | SHL -> "'<<'"
  | SHR -> "'>>'"
  | EOF -> "end of input"
  | kw -> (
      (* Reverse lookup through the keyword table. *)
      match List.find_opt (fun (_, t) -> t = kw) keyword_table with
      | Some (name, _) -> Printf.sprintf "keyword %S" name
      | None -> "<token>")
