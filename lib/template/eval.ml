exception Eval_error = Bind.Eval_error

type output = { files : (string * string) list; stdout : string }

type state = {
  template : string;
  mutable nodes : Est.Node.t list;  (* innermost first *)
  mutable index : int;  (* of the innermost @foreach *)
  mutable count : int;
  mutable current : Buffer.t;
  stdout_buf : Buffer.t;
  mutable files : (string * Buffer.t) list;  (* reverse order of opening *)
}

(* A source's raw (unmapped) value. *)
let raw st ~line = function
  | Bind.Const s -> s
  | Bind.Prop var ->
      let rec go = function
        | [] ->
            raise
              (Eval_error
                 { template = st.template; line;
                   message =
                     Printf.sprintf "unresolved variable ${%s} (node stack: %s)" var
                       (String.concat " > " (List.rev_map Est.Node.kind st.nodes)) })
        | node :: rest -> (
            match Est.Node.prop node var with Some v -> v | None -> go rest)
      in
      go st.nodes
  | Bind.Loop f -> f st.index st.count

let subst_into buf st ~line segments =
  List.iter
    (fun { Bind.src; map } ->
      let v = raw st ~line src in
      Buffer.add_string buf (match map with None -> v | Some f -> f v))
    segments

let rec eval_items st items = List.iter (eval_item st) items

and eval_item st = function
  | Bind.Text { segments; newline; line } ->
      subst_into st.current st ~line segments;
      if newline then Buffer.add_char st.current '\n'
  | Bind.Openfile { segments; line } ->
      let name = Buffer.create 64 in
      subst_into name st ~line segments;
      let filename = Buffer.contents name in
      let buf =
        match List.assoc_opt filename st.files with
        | Some buf -> buf
        | None ->
            let buf = Buffer.create 1024 in
            st.files <- (filename, buf) :: st.files;
            buf
      in
      st.current <- buf
  | Bind.If { lhs; rhs; equal; then_; else_; line } ->
      (* Conditions compare unmapped values. *)
      if (raw st ~line lhs = raw st ~line rhs) = equal then eval_items st then_
      else eval_items st else_
  | Bind.Foreach { group; body } ->
      (* An exception abandons the whole [run] and its state, so only
         the normal path restores the outer loop. *)
      let outer = st.nodes and index = st.index and count = st.count in
      let children = Est.Node.group (List.hd outer) group in
      st.count <- List.length children;
      List.iteri
        (fun i child ->
          st.index <- i;
          st.nodes <- child :: outer;
          eval_items st body)
        children;
      st.nodes <- outer;
      st.index <- index;
      st.count <- count

let run ?maps (tmpl : Ast.t) (root : Est.Node.t) : output =
  let stdout_buf = Buffer.create 1024 in
  let st =
    {
      template = tmpl.Ast.name;
      nodes = [ root ];
      index = 0;
      count = 0;
      current = stdout_buf;
      stdout_buf;
      files = [];
    }
  in
  eval_items st (Bind.bind ?maps tmpl).Bind.items;
  {
    files = List.rev_map (fun (name, buf) -> (name, Buffer.contents buf)) st.files;
    stdout = Buffer.contents st.stdout_buf;
  }

let render ?maps ~name src root = run ?maps (Parse.parse ~name src) root

let concat_output out =
  String.concat "" (out.stdout :: List.map snd out.files)
