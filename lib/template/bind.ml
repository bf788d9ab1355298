exception Eval_error of { template : string; line : int; message : string }

let () =
  Printexc.register_printer (function
    | Eval_error { template; line; message } ->
        Some (Printf.sprintf "%s:%d: evaluation error: %s" template line message)
    | _ -> None)

type source =
  | Const of string
  | Prop of string
  | Loop of (int -> int -> string)

type value = { src : source; map : Maps.fn option }

type item =
  | Text of { segments : value list; newline : bool; line : int }
  | Foreach of { group : string; body : item list }
  | If of {
      lhs : source;
      rhs : source;
      equal : bool;
      then_ : item list;
      else_ : item list;
      line : int;
    }
  | Openfile of { segments : value list; line : int }

type use =
  | Prop_use of { name : string; line : int; openfile : bool; scope : string list }
  | Group_use of { group : string; line : int; scope : string list }
  | Map_miss of { fn : string; var : string; line : int }

type t = { items : item list; uses : use list }

(* One static @foreach frame: its group path (innermost first), its
   -ifMore separator and its -map declarations (variable, map name). *)
type frame = { path : string list; if_more : string; decls : (string * string) list }

let path = function f :: _ -> f.path | [] -> []

let bind ?(maps = Maps.empty) (tmpl : Ast.t) =
  let uses = ref [] in
  let use u = uses := u :: !uses in
  let check_known ~var ~line fn =
    if Maps.find maps fn = None then use (Map_miss { fn; var; line })
  in
  (* The function a map name names. An unknown name fails only when
     evaluation reaches its use. *)
  let map_fn ~line fn message =
    match Maps.find maps fn with
    | Some f -> f
    | None ->
        fun _ ->
          raise (Eval_error { template = tmpl.Ast.name; line; message = message () })
  in
  let source ?(openfile = false) scope ~line var =
    match (scope, var) with
    | f :: _, "ifMore" -> Loop (fun i n -> if i < n - 1 then f.if_more else "")
    | _ :: _, "index" -> Loop (fun i _ -> string_of_int i)
    | _ :: _, "count" -> Loop (fun _ n -> string_of_int n)
    | _ :: _, "isFirst" -> Loop (fun i _ -> if i = 0 then "true" else "")
    | _ :: _, "isLast" -> Loop (fun i n -> if i = n - 1 then "true" else "")
    | _ ->
        use (Prop_use { name = var; line; openfile; scope = path scope });
        Prop var
  in
  let segment ?openfile scope ~line = function
    | Ast.Lit s -> { src = Const s; map = None }
    | Ast.Var v ->
        let src = source ?openfile scope ~line v in
        let decl = List.find_map (fun f -> List.assoc_opt v f.decls) scope in
        let message fn () = Printf.sprintf "unknown map function %S for ${%s}" fn v in
        { src; map = Option.map (fun fn -> map_fn ~line fn (message fn)) decl }
    | Ast.Mapped (v, fn) ->
        (* Inline maps override any -map declaration in scope. *)
        let src = source ?openfile scope ~line v in
        check_known ~var:v ~line fn;
        let message () = Printf.sprintf "unknown map function %S" fn in
        { src; map = Some (map_fn ~line fn message) }
  in
  let rec items scope l = List.map (item scope) l
  and item scope = function
    | Ast.Text { segments; newline; line } ->
        Text { segments = List.map (segment scope ~line) segments; newline; line }
    | Ast.Openfile { segments; line } ->
        let segments = List.map (segment ~openfile:true scope ~line) segments in
        Openfile { segments; line }
    | Ast.If { cond; then_; else_; line } ->
        (* [@if ${v}] tests [v != ""]. *)
        let v, rhs, equal =
          match cond with
          | Ast.Nonempty v -> (v, Ast.O_lit "", false)
          | Ast.Eq (v, rhs) -> (v, rhs, true)
          | Ast.Neq (v, rhs) -> (v, rhs, false)
        in
        let lhs = source scope ~line v in
        let rhs =
          match rhs with Ast.O_lit s -> Const s | Ast.O_var v -> source scope ~line v
        in
        let then_ = items scope then_ in
        If { lhs; rhs; equal; then_; else_ = items scope else_; line }
    | Ast.Foreach { group; if_more; maps = decls; body; line } ->
        List.iter (fun (var, fn) -> check_known ~var ~line fn) decls;
        use (Group_use { group; line; scope = path scope });
        let if_more = Option.value ~default:"" if_more in
        let f = { path = group :: path scope; if_more; decls } in
        Foreach { group; body = items (f :: scope) body }
  in
  let items = items [] tmpl.Ast.items in
  { items; uses = List.rev !uses }
