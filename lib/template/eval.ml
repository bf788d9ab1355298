exception Eval_error of { template : string; line : int; message : string }

let () =
  Printexc.register_printer (function
    | Eval_error { template; line; message } ->
        Some (Printf.sprintf "%s:%d: evaluation error: %s" template line message)
    | _ -> None)

type output = { files : (string * string) list; stdout : string }

type frame = {
  node : Est.Node.t;
  bindings : (string * string) list;
  maps : (string * string) list;
}

type state = {
  template : string;
  registry : Maps.t;
  mutable stack : frame list;  (* innermost first *)
  mutable current : Buffer.t;
  stdout_buf : Buffer.t;
  mutable files : (string * Buffer.t) list;  (* reverse order of opening *)
}

let error st ~line fmt =
  Printf.ksprintf
    (fun message -> raise (Eval_error { template = st.template; line; message }))
    fmt

(* Resolve a variable to its raw (unmapped) value. *)
let resolve_raw st ~line var =
  let rec go = function
    | [] ->
        error st ~line "unresolved variable ${%s} (node stack: %s)" var
          (String.concat " > "
             (List.rev_map (fun f -> Est.Node.kind f.node) st.stack))
    | frame :: rest -> (
        match List.assoc_opt var frame.bindings with
        | Some v -> v
        | None -> (
            match Est.Node.prop frame.node var with
            | Some v -> v
            | None -> go rest))
  in
  go st.stack

(* The innermost -map declaration for [var], if any. *)
let map_for st var =
  List.find_map (fun frame -> List.assoc_opt var frame.maps) st.stack

let resolve_mapped st ~line var =
  let raw = resolve_raw st ~line var in
  match map_for st var with
  | None -> raw
  | Some fn_name -> (
      match Maps.find st.registry fn_name with
      | Some fn -> fn raw
      | None -> error st ~line "unknown map function %S for ${%s}" fn_name var)

let apply_named_map st ~line fn_name raw =
  match Maps.find st.registry fn_name with
  | Some fn -> fn raw
  | None -> error st ~line "unknown map function %S" fn_name

let subst_into buf st ~line segments =
  List.iter
    (function
      | Ast.Lit s -> Buffer.add_string buf s
      | Ast.Var v -> Buffer.add_string buf (resolve_mapped st ~line v)
      | Ast.Mapped (v, fn) ->
          (* Inline maps override any -map declaration in scope. *)
          Buffer.add_string buf (apply_named_map st ~line fn (resolve_raw st ~line v)))
    segments

let subst st ~line segments =
  let buf = Buffer.create 64 in
  subst_into buf st ~line segments;
  Buffer.contents buf

let eval_operand st ~line = function
  | Ast.O_lit s -> s
  | Ast.O_var v -> resolve_raw st ~line v

let eval_cond st ~line = function
  | Ast.Nonempty v -> resolve_raw st ~line v <> ""
  | Ast.Eq (v, rhs) -> resolve_raw st ~line v = eval_operand st ~line rhs
  | Ast.Neq (v, rhs) -> resolve_raw st ~line v <> eval_operand st ~line rhs

let rec eval_items st items = List.iter (eval_item st) items

and eval_item st = function
  | Ast.Text { segments; newline; line } ->
      subst_into st.current st ~line segments;
      if newline then Buffer.add_char st.current '\n'
  | Ast.Openfile { segments; line } ->
      let filename = subst st ~line segments in
      let buf =
        match List.assoc_opt filename st.files with
        | Some buf -> buf
        | None ->
            let buf = Buffer.create 1024 in
            st.files <- (filename, buf) :: st.files;
            buf
      in
      st.current <- buf
  | Ast.If { cond; then_; else_; line } ->
      if eval_cond st ~line cond then eval_items st then_ else eval_items st else_
  | Ast.Foreach { group; if_more; maps; body; line = _ } -> (
      match st.stack with
      | [] -> assert false
      | { node; _ } :: _ ->
          let children = Est.Node.group node group in
          let count = List.length children in
          List.iteri
            (fun idx child ->
              let bindings =
                [
                  ("ifMore",
                   if idx < count - 1 then Option.value ~default:"" if_more else "");
                  ("index", string_of_int idx);
                  ("count", string_of_int count);
                  ("isFirst", if idx = 0 then "true" else "");
                  ("isLast", if idx = count - 1 then "true" else "");
                ]
              in
              (* An exception abandons the whole [run] and its state,
                 so only the normal path pops the frame. *)
              let outer = st.stack in
              st.stack <- { node = child; bindings; maps } :: outer;
              eval_items st body;
              st.stack <- outer)
            children)

let run ?(maps = Maps.empty) (tmpl : Ast.t) (root : Est.Node.t) : output =
  let stdout_buf = Buffer.create 1024 in
  let st =
    {
      template = tmpl.Ast.name;
      registry = maps;
      stack = [ { node = root; bindings = []; maps = [] } ];
      current = stdout_buf;
      stdout_buf;
      files = [];
    }
  in
  eval_items st tmpl.Ast.items;
  {
    files = List.rev_map (fun (name, buf) -> (name, Buffer.contents buf)) st.files;
    stdout = Buffer.contents st.stdout_buf;
  }

let render ?maps ~name src root = run ?maps (Parse.parse ~name src) root

let concat_output out =
  String.concat "" (out.stdout :: List.map snd out.files)
