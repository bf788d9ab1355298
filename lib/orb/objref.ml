type t = {
  proto : string;
  host : string;
  port : int;
  extra : (string * string * int) list;  (* replica endpoints beyond the primary *)
  oid : string;
  type_id : string;
  text : string;  (* the printed form, made once with the reference *)
}

let check_endpoint (proto, host, port) =
  if proto = "" then invalid_arg "Objref: endpoint protocol must not be empty";
  if host = "" then invalid_arg "Objref: endpoint host must not be empty";
  if port < 0 || port >= 65536 then
    invalid_arg (Printf.sprintf "Objref: endpoint port %d out of range" port);
  if String.exists (fun c -> c = ',' || c = '#' || c = ':') host then
    invalid_arg
      (Printf.sprintf "Objref: endpoint host %S contains a reserved character"
         host);
  if String.contains proto ',' || String.contains proto '#' then
    invalid_arg
      (Printf.sprintf "Objref: endpoint proto %S contains a reserved character"
         proto)

let endpoint_to_string (proto, host, port) =
  proto ^ ":" ^ host ^ ":" ^ string_of_int port

(* A reference is immutable, so it is printed once, here: the client
   writes the target's text into every request it encodes. *)
let build ((proto, host, port) as primary) extra ~oid ~type_id =
  let url = String.concat "," (List.map endpoint_to_string (primary :: extra)) in
  let text = String.concat "" [ "@"; url; "#"; oid; "#"; type_id ] in
  { proto; host; port; extra; oid; type_id; text }

let rec check_no_dup = function
  | [] -> ()
  | ep :: rest ->
      if List.mem ep rest then
        invalid_arg
          (Printf.sprintf "Objref: duplicate endpoint %s in endpoint set"
             (endpoint_to_string ep))
      else check_no_dup rest

let make_multi ~endpoints ~oid ~type_id =
  match endpoints with
  | [] -> invalid_arg "Objref.make_multi: endpoint set must not be empty"
  | primary :: rest ->
      List.iter check_endpoint endpoints;
      check_no_dup endpoints;
      if String.contains oid '#' || String.contains type_id '#' then
        invalid_arg "Objref: oid and type id must not contain '#'";
      build primary rest ~oid ~type_id

let make ~proto ~host ~port ~oid ~type_id =
  make_multi ~endpoints:[ (proto, host, port) ] ~oid ~type_id

let endpoints r = (r.proto, r.host, r.port) :: r.extra
let endpoint r = (r.proto, r.host, r.port)
let is_multi r = r.extra <> []

let with_endpoints r endpoints =
  make_multi ~endpoints ~oid:r.oid ~type_id:r.type_id

(* The single-endpoint view of [r] at one of its endpoints: what goes on
   the wire when the client has picked a replica — peers that predate the
   multi-endpoint grammar must keep parsing every envelope target. *)
let at_endpoint r ((proto, host, port) as ep) =
  if r.extra = [] && r.proto = proto && r.host = host && r.port = port then r
  else make_multi ~endpoints:[ ep ] ~oid:r.oid ~type_id:r.type_id

let to_string r = r.text

(* The port in [s] from [pos] to the end, in canonical decimal — the
   only form the printer writes: digits only, no sign, prefix or '_',
   and no leading zero but "0" itself. -1 for anything else. *)
let rec digits s i acc =
  if i = String.length s then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> digits s (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> -1

let port_from s pos =
  let n = String.length s - pos in
  if n = 0 || n > 5 || (n > 1 && s.[pos] = '0') then -1 else digits s pos 0

(* One endpoint segment: proto:host:port — host may not contain ':',
   ',' or '#'; the proto may itself contain ':' (e.g. "faulty:mem"), so
   the segment is parsed from the right: last piece is the port, the one
   before it the host, everything earlier the proto. *)
let parse_endpoint seg =
  match String.rindex_opt seg ':' with
  | None -> None
  | Some j -> (
      match String.rindex_from_opt seg (j - 1) ':' with
      | Some i when i > 0 && j > i + 1 ->
          let port = port_from seg (j + 1) in
          if port < 0 || port >= 65536 then None
          else Some (String.sub seg 0 i, String.sub seg (i + 1) (j - i - 1), port)
      | _ -> None)

let of_string_opt s =
  (* @proto:host:port[,proto:host:port...]#oid#type_id — the url part is
     a comma-separated endpoint set (one endpoint in the historical
     grammar, which this parser accepts unchanged); the type id may
     contain ':' (IDL:...:1.0) but not '#'. Empty or duplicate endpoint
     segments make the whole reference malformed. Every accepted string
     is the printed form of what it parses to, so it is kept as the
     reference's text. *)
  if String.length s < 2 || s.[0] <> '@' then None
  else
    match String.split_on_char '#' (String.sub s 1 (String.length s - 1)) with
    | [ url; oid; type_id ] -> (
        let segs = String.split_on_char ',' url in
        let rec parse_all acc = function
          | [] -> Some (List.rev acc)
          | seg :: rest -> (
              match parse_endpoint seg with
              | Some ep when not (List.mem ep acc) -> parse_all (ep :: acc) rest
              | _ -> None (* malformed, empty, or duplicate endpoint *))
        in
        match parse_all [] segs with
        | Some ((proto, host, port) :: extra) ->
            Some { proto; host; port; extra; oid; type_id; text = s }
        | _ -> None)
    | _ -> None

let of_string s =
  match of_string_opt s with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Objref.of_string: malformed reference %S" s)

let equal (a : t) b = a = b
let pp ppf r = Format.pp_print_string ppf r.text
