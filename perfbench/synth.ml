(* Seeded synthetic IDL for the idl_compile workload.

   The spec exercises what the example files barely touch: many
   modules, inheritance chains (some extending an interface of an
   earlier module), structs nesting earlier structs, sequence typedefs,
   exceptions with raises clauses, readonly and plain attributes, every
   parameter mode, default parameter values and the [incopy] mode. It
   uses only constructs every built-in mapping accepts, so it compiles
   cleanly under all five; the benchmark checks that on every pass.

   The seed decides which type, mode or optional part goes where. Each
   choice is dealt from a shuffled deck, and the counts of declarations,
   members, operations and the inheritance shape are fixed, so every
   seed yields the same amount of each construct and a pass costs about
   the same whatever the seed. *)

let basic = [| "long"; "short"; "unsigned long"; "boolean"; "string"; "double"; "octet" |]

(* Deals the elements of [a] in a seeded order, each once per round. *)
let deck rng a =
  let cur = ref [||] and i = ref 0 in
  fun () ->
    if !i >= Array.length !cur then begin
      let d = Array.copy a in
      for k = Array.length d - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let x = d.(k) in
        d.(k) <- d.(j);
        d.(j) <- x
      done;
      cur := d;
      i := 0
    end;
    incr i;
    !cur.(!i - 1)

let structs_per_module = 4
let chain = 3

let generate ~seed ~modules =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let basic_type = deck rng basic in
  let field_kind = deck rng [| `Struct; `Enum; `Basic; `Basic |] in
  (* Indexes into a module's value types: 7 basic, 4 structs, 2
     sequences, 1 enum. *)
  let value_type = deck rng (Array.init (Array.length basic + structs_per_module + 3) Fun.id) in
  let readonly = deck rng [| true; false |] in
  let returns_void = deck rng [| true; false; false |] in
  let mode = deck rng [| "in"; "in"; "out"; "inout" |] in
  let incopy = deck rng [| true; false; false |] in
  let default = deck rng [| 0; 1; 2; 3 |] in
  let raises = deck rng [| true; false |] in
  let oneway = deck rng [| true; false; false |] in
  let b = Buffer.create (256 * 1024) in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  (* Interfaces defined so far, as scoped names, for incopy parameters. *)
  let ifaces = ref [||] in
  line "/* Synthetic spec, seed %d. */" seed;
  for m = 0 to modules - 1 do
    line "module Syn%d {" m;
    line "  enum Mode%d { %s };" m
      (String.concat ", " (List.init 4 (fun i -> Printf.sprintf "M%d_v%d" m i)));
    let structs = Array.init structs_per_module (fun s -> Printf.sprintf "Rec%d_%d" m s) in
    Array.iteri
      (fun s name ->
        line "  struct %s {" name;
        for f = 0 to 4 do
          let ty =
            match field_kind () with
            | `Struct when s > 0 -> structs.(Random.State.int rng s)
            | `Enum -> Printf.sprintf "Mode%d" m
            | _ -> basic_type ()
          in
          line "    %s f%d;" ty f
        done;
        line "  };")
      structs;
    let seqs = [| Printf.sprintf "Seq%d_0" m; Printf.sprintf "Seq%d_1" m |] in
    line "  typedef sequence<long> %s;" seqs.(0);
    line "  typedef sequence<%s> %s;" (pick structs) seqs.(1);
    let excs = [| Printf.sprintf "Fault%d_0" m; Printf.sprintf "Fault%d_1" m |] in
    Array.iter
      (fun name ->
        line "  exception %s {" name;
        line "    string reason;";
        line "    long code;";
        line "  };")
      excs;
    let value_types = Array.concat [ basic; structs; seqs; [| Printf.sprintf "Mode%d" m |] ] in
    for i = 0 to chain - 1 do
      let name = Printf.sprintf "Node%d_%d" m i in
      (* Odd modules start their chain on the middle of the previous
         module's chain: depth five at most, the same on every seed. *)
      (match i with
      | 0 when m mod 2 = 1 -> line "  interface %s : Syn%d::Node%d_1 {" name (m - 1) (m - 1)
      | 0 -> line "  interface %s {" name
      | _ -> line "  interface %s : Node%d_%d {" name m (i - 1));
      for a = 0 to 1 do
        line "    %sattribute %s a%d_%d_%d;"
          (if readonly () then "readonly " else "")
          (basic_type ()) m i a
      done;
      for o = 0 to 4 do
        let ret = if returns_void () then "void" else value_types.(value_type ()) in
        let params =
          List.init 2 (fun p -> Printf.sprintf "%s %s p%d" (mode ()) value_types.(value_type ()) p)
        in
        let params =
          if incopy () && Array.length !ifaces > 0 then
            params @ [ Printf.sprintf "incopy %s src" (pick !ifaces) ]
          else params
        in
        (* Defaults trail the other parameters. *)
        let params =
          match default () with
          | 0 -> params @ [ Printf.sprintf "in long level = %d" (Random.State.int rng 100) ]
          | 1 -> params @ [ "in boolean flag = TRUE" ]
          | 2 -> params @ [ Printf.sprintf "in Mode%d mode = M%d_v0" m m ]
          | _ -> params
        in
        line "    %s op%d_%d_%d(%s)%s;" ret m i o (String.concat ", " params)
          (if raises () then Printf.sprintf " raises (%s)" (pick excs) else "")
      done;
      if oneway () then line "    oneway void notify%d_%d(in string text);" m i;
      line "  };";
      ifaces := Array.append !ifaces [| Printf.sprintf "Syn%d::%s" m name |]
    done;
    line "};"
  done;
  Buffer.contents b
