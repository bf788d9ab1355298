(* A deterministic IDL spec that grows linearly with [modules]: the input
   of E4's EST build-scaling sweep and of test_est's allocation gate.

   Every module declares the same shapes, so a spec of 4n modules holds
   exactly four times the declarations of one of n modules:
   - an enum, a fixed struct, a variable struct holding the fixed one,
     an alias of the variable struct and a struct nesting both through
     the alias (and the previous module's fixed struct);
   - a sequence typedef and an exception;
   - a three-interface inheritance chain whose operations and attributes
     take and return those structs. Every odd module starts its chain on
     the middle of the previous module's chain, so chains are at most
     five deep whatever the size. *)

let generate ~modules =
  let b = Buffer.create (modules * 1024) in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  for m = 0 to modules - 1 do
    line "module G%d {" m;
    line "  enum E%d { E%d_a, E%d_b, E%d_c };" m m m m;
    line "  struct Fix%d { long x; double y; E%d e; };" m m;
    line "  struct Var%d { Fix%d f; string s; };" m m;
    line "  typedef Var%d Alias%d;" m m;
    if m = 0 then line "  struct Nest%d { Alias%d a; Fix%d f; };" m m m
    else line "  struct Nest%d { Alias%d a; Fix%d f; G%d::Fix%d g; };" m m m (m - 1) (m - 1);
    line "  typedef sequence<Nest%d> Seq%d;" m m;
    line "  exception X%d { string why; long code; };" m;
    for i = 0 to 2 do
      (match i with
      | 0 when m mod 2 = 1 -> line "  interface I%d_0 : G%d::I%d_1 {" m (m - 1) (m - 1)
      | 0 -> line "  interface I%d_0 {" m
      | _ -> line "  interface I%d_%d : I%d_%d {" m i m (i - 1));
      line "    Nest%d get%d_%d(in Fix%d a, inout Alias%d b) raises (X%d);" m m i m m m;
      line "    void put%d_%d(in Seq%d all, out Var%d last);" m i m m;
      line "    long count%d_%d(in E%d which);" m i m;
      line "    attribute Alias%d cur%d_%d;" m m i;
      line "    readonly attribute Fix%d base%d_%d;" m m i;
      line "  };"
    done;
    line "};"
  done;
  Buffer.contents b
