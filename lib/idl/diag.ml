type severity = Error | Warning

type t = {
  severity : severity;
  code : string;
  loc : Loc.t;
  message : string;
  notes : (Loc.t * string) list;
}

exception Idl_error of t

let make ?(code = "") ?(notes = []) ~severity ~loc message =
  { severity; code; loc; message; notes }

let error ?code ?notes ~loc fmt =
  Format.kasprintf
    (fun message ->
      raise (Idl_error (make ?code ?notes ~severity:Error ~loc message)))
    fmt

let warning ?code ?notes ~loc fmt =
  Format.kasprintf (fun message -> make ?code ?notes ~severity:Warning ~loc message) fmt

let severity_tag = function Error -> "error" | Warning -> "warning"

let pp ppf t =
  let tag = severity_tag t.severity in
  if t.code = "" then Format.fprintf ppf "%a: %s: %s" Loc.pp t.loc tag t.message
  else Format.fprintf ppf "%a: %s[%s]: %s" Loc.pp t.loc tag t.code t.message;
  List.iter
    (fun (loc, note) -> Format.fprintf ppf "@\n%a: note: %s" Loc.pp loc note)
    t.notes

let to_string t = Format.asprintf "%a" pp t

(* ---------------- JSON rendering ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let note_json (loc, msg) =
    Printf.sprintf
      "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
      (json_escape loc.Loc.file) loc.Loc.line loc.Loc.col (json_escape msg)
  in
  Printf.sprintf
    "{\"severity\":\"%s\",\"code\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\",\"notes\":[%s]}"
    (severity_tag t.severity) (json_escape t.code) (json_escape t.loc.Loc.file)
    t.loc.Loc.line t.loc.Loc.col (json_escape t.message)
    (String.concat "," (List.map note_json t.notes))

(* ---------------- accumulating reporter ---------------- *)

type reporter = {
  mutable diags : t list;  (* reverse emission order *)
  mutable seen : (string * Loc.t * string) list;  (* dedup keys *)
  disabled : (string, unit) Hashtbl.t;
  werror : bool;
}

let reporter ?(werror = false) () =
  { diags = []; seen = []; disabled = Hashtbl.create 8; werror }

let set_enabled r code enabled =
  if enabled then Hashtbl.remove r.disabled code
  else Hashtbl.replace r.disabled code ()

let effective_severity r t =
  match t.severity with
  | Warning when r.werror -> Error
  | s -> s

let report r t =
  let key = (t.code, t.loc, t.message) in
  if Hashtbl.mem r.disabled t.code && t.severity = Warning then ()
  else if List.mem key r.seen then ()
  else begin
    r.seen <- key :: r.seen;
    r.diags <- t :: r.diags
  end

let diagnostics r =
  let by_loc a b =
    match compare a.loc.Loc.file b.loc.Loc.file with
    | 0 -> (
        match compare a.loc.Loc.line b.loc.Loc.line with
        | 0 -> compare a.loc.Loc.col b.loc.Loc.col
        | c -> c)
    | c -> c
  in
  List.stable_sort by_loc (List.rev r.diags)

let error_count r =
  List.length (List.filter (fun d -> effective_severity r d = Error) r.diags)

let warning_count r =
  List.length (List.filter (fun d -> effective_severity r d = Warning) r.diags)

let has_errors r = error_count r > 0

(* Render with the effective severity, so --werror'd warnings read as the
   errors they are counted as. *)
let promote r d = { d with severity = effective_severity r d }

let render_text r =
  String.concat ""
    (List.map (fun d -> to_string (promote r d) ^ "\n") (diagnostics r))

let render_json r =
  "["
  ^ String.concat ",\n " (List.map (fun d -> to_json (promote r d)) (diagnostics r))
  ^ "]\n"

(* ---------------- recovery hooks ----------------

   Given a reporter, code paths that would normally abort on the first
   [Idl_error] can instead accumulate the diagnostic and keep going, so
   one run surfaces every problem (the lint mode contract). Given none,
   behaviour is exactly the historic raise-on-first-error semantics. *)

let recover reporter ~default f =
  match reporter with
  | None -> f ()
  | Some r -> (
      try f ()
      with Idl_error d ->
        report r d;
        default)

let emit reporter ?code ?notes ~loc fmt =
  Format.kasprintf
    (fun message ->
      let d = make ?code ?notes ~severity:Error ~loc message in
      match reporter with
      | Some r -> report r d
      | None -> raise (Idl_error d))
    fmt

let () =
  Printexc.register_printer (function
    | Idl_error d -> Some (to_string d)
    | _ -> None)
