(* Robustness fuzzing: hostile inputs must produce typed errors, never
   crashes or unexpected exceptions. These are the failure-injection
   counterparts to the happy-path property tests. *)

(* ------------- IDL parser on mutated source ------------- *)

let idl_seeds =
  [
    "module Heidi { interface A : S { void f(in A a); }; };";
    "enum E { a, b }; const long K = 1 + 2 * 3;";
    "union U switch (long) { case 1: long a; default: string b; };";
    "typedef sequence<sequence<long>, 4> M; struct S2 { M m; };";
    "interface I { oneway void f(in string s); readonly attribute long x; };";
  ]

let gen_mutated_idl =
  QCheck.Gen.(
    let* seed = oneofl idl_seeds in
    let* mutations = int_range 1 6 in
    let rec mutate s k st =
      if k = 0 || String.length s = 0 then s
      else
        let pos = Random.State.int st (String.length s) in
        let s =
          match Random.State.int st 4 with
          | 0 ->
              (* delete a char *)
              String.sub s 0 pos ^ String.sub s (pos + 1) (String.length s - pos - 1)
          | 1 ->
              (* duplicate a char *)
              String.sub s 0 pos ^ String.make 1 s.[pos] ^ String.sub s pos (String.length s - pos)
          | 2 ->
              (* flip to a random printable *)
              String.mapi
                (fun i c -> if i = pos then Char.chr (32 + Random.State.int st 95) else c)
                s
          | _ ->
              (* insert a hostile token *)
              let tokens = [| "}{"; ";;"; "::"; "<<"; "\"\""; "= ="; "interface"; "\x01" |] in
              String.sub s 0 pos
              ^ tokens.(Random.State.int st (Array.length tokens))
              ^ String.sub s pos (String.length s - pos)
        in
        mutate s (k - 1) st
    in
    fun st -> mutate seed mutations st)

let idl_fuzz =
  QCheck.Test.make ~count:1000 ~name:"mutated IDL: parse+resolve only raises Idl_error"
    (QCheck.make ~print:(fun s -> s) gen_mutated_idl)
    (fun src ->
      match Est.Resolve.spec (Idl.Parser.parse_string src) with
      | _ -> true
      | exception Idl.Diag.Idl_error _ -> true)

(* ------------- template parser on directive soup ------------- *)

let gen_template_soup =
  QCheck.Gen.(
    let piece =
      oneofl
        [
          "@foreach xs -ifMore ','\n"; "@end xs\n"; "@end\n"; "@if ${v} == \"x\"\n";
          "@else\n"; "@fi\n"; "text ${v} more\n"; "joined \\\n"; "@openfile ${v}.out\n";
          "@# comment\n"; "${v:Some::Map}\n"; "$\\{literal}\n"; "@if ${v}\n";
          "@foreach ys -map v Fn\n"; "@wibble\n"; "${unterminated\n"; "@@literal\n";
        ]
    in
    let* pieces = list_size (int_range 1 15) piece in
    return (String.concat "" pieces))

let template_fuzz =
  QCheck.Test.make ~count:1000
    ~name:"template soup: parse only raises Template_error"
    (QCheck.make ~print:(fun s -> s) gen_template_soup)
    (fun src ->
      match Template.Parse.parse ~name:"<fuzz>" src with
      | _ -> true
      | exception Template.Parse.Template_error _ -> true)

(* Well-formed templates evaluated against a node missing the variables
   they mention must fail with Eval_error, not anything else. *)
let eval_fuzz =
  QCheck.Test.make ~count:500
    ~name:"template evaluation on empty EST: Eval_error only"
    (QCheck.make ~print:(fun s -> s) gen_template_soup)
    (fun src ->
      match Template.Parse.parse ~name:"<fuzz>" src with
      | exception Template.Parse.Template_error _ -> true
      | tmpl -> (
          let node = Est.Node.create ~name:"" ~kind:"Root" in
          match Template.Eval.run tmpl node with
          | _ -> true
          | exception Template.Eval.Eval_error _ -> true))

(* ------------- codecs on random bytes ------------- *)

let gen_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_range 0 64))

let decode_ops (d : Wire.Codec.decoder) =
  [
    (fun () -> ignore (d.Wire.Codec.get_bool ()));
    (fun () -> ignore (d.Wire.Codec.get_char ()));
    (fun () -> ignore (d.Wire.Codec.get_octet ()));
    (fun () -> ignore (d.Wire.Codec.get_short ()));
    (fun () -> ignore (d.Wire.Codec.get_long ()));
    (fun () -> ignore (d.Wire.Codec.get_longlong ()));
    (fun () -> ignore (d.Wire.Codec.get_double ()));
    (fun () -> ignore (d.Wire.Codec.get_string ()));
    (fun () -> ignore (d.Wire.Codec.get_len ()));
    (fun () -> d.Wire.Codec.get_begin ());
  ]

let codec_fuzz (codec : Wire.Codec.t) =
  QCheck.Test.make ~count:1000
    ~name:(codec.Wire.Codec.name ^ " decoder on random bytes: Type_error only")
    (QCheck.make
       ~print:(fun (s, _) -> String.escaped s)
       QCheck.Gen.(pair gen_bytes (list_size (int_range 1 8) (int_bound 9))))
    (fun (bytes, ops) ->
      (* Some decoders (text) tokenize at construction, so building the
         decoder may itself raise Type_error. *)
      match codec.Wire.Codec.decoder bytes with
      | exception Wire.Codec.Type_error _ -> true
      | d ->
          List.for_all
            (fun i ->
              match (List.nth (decode_ops d) i) () with
              | () -> true
              | exception Wire.Codec.Type_error _ -> true)
            ops)

(* ------------- protocol decoder on random bytes ------------- *)

let protocol_fuzz (proto : Orb.Protocol.t) =
  QCheck.Test.make ~count:1000
    ~name:(proto.Orb.Protocol.name ^ " decode_message on random bytes")
    (QCheck.make ~print:String.escaped gen_bytes)
    (fun bytes ->
      match proto.Orb.Protocol.decode_message bytes with
      | _ -> true
      | exception Orb.Protocol.Protocol_error _ -> true)

(* ------------- objref parser on random strings ------------- *)

let objref_fuzz =
  QCheck.Test.make ~count:1000 ~name:"objref parser on random strings never raises"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         string_size
           ~gen:(oneof [ oneofl [ '@'; ':'; '#'; '.' ]; printable ])
           (int_range 0 40)))
    (fun s ->
      match Orb.Objref.of_string_opt s with
      | Some r ->
          (* Anything accepted must round-trip. *)
          Orb.Objref.equal r (Orb.Objref.of_string (Orb.Objref.to_string r))
      | None -> true)

(* ------------- EST dump reader on corrupted dumps ------------- *)

let est_dump_fuzz =
  let base =
    Est.Dump.to_text
      (Core.Compiler.est_of_string "module M { interface I { void f(); }; };")
  in
  QCheck.Test.make ~count:500 ~name:"corrupted EST dumps: Failure only"
    (QCheck.make
       ~print:(fun (pos, c) -> Printf.sprintf "flip %d to %C" pos c)
       QCheck.Gen.(pair (int_bound (String.length base - 1)) printable))
    (fun (pos, c) ->
      let corrupted =
        String.mapi (fun i orig -> if i = pos then c else orig) base
      in
      match Est.Dump.of_text corrupted with
      | _ -> true
      | exception Failure _ -> true)

let () =
  Alcotest.run "fuzz"
    [
      ( "hostile inputs",
        List.map QCheck_alcotest.to_alcotest
          [
            idl_fuzz;
            template_fuzz;
            eval_fuzz;
            codec_fuzz Wire.Text_codec.codec;
            codec_fuzz (Wire.Cdr_codec.codec Wire.Cdr_codec.Big_endian);
            protocol_fuzz Orb.Protocol.text;
            protocol_fuzz (Giop.protocol ());
            objref_fuzz;
            est_dump_fuzz;
          ] );
    ]
