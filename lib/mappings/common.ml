let split_flat s = String.split_on_char '_' s

let split_scoped s =
  (* Split on "::". *)
  let rec go acc s =
    match String.index_opt s ':' with
    | Some i when i + 1 < String.length s && s.[i + 1] = ':' ->
        go (String.sub s 0 i :: acc) (String.sub s (i + 2) (String.length s - i - 2))
    | _ -> List.rev (s :: acc)
  in
  go [] s

let contains_scoped_sep s =
  let rec scan i =
    if i + 1 >= String.length s then false
    else if s.[i] = ':' && s.[i + 1] = ':' then true
    else scan (i + 1)
  in
  scan 0

let split_name s = if contains_scoped_sep s then split_scoped s else split_flat s

let last_segment s =
  match List.rev (split_name s) with seg :: _ -> seg | [] -> s

let hd_name s =
  let segments =
    match split_name s with "Heidi" :: rest when rest <> [] -> rest | segs -> segs
  in
  "Hd" ^ String.concat "" segments

let cpp_scoped s = String.concat "::" (split_name s)
let java_name s = last_segment s

(* Map functions ask for the same few hundred type strings thousands of
   times per compile, so each domain memoizes the parse in its own
   table. The table is cleared rather than grown once it holds
   [ctype_memo_limit] entries: it keeps the bucket array it was created
   with and never resizes, so threads of one domain that interleave here
   can at worst lose an entry, and a long-lived process holds at most
   that many types per domain. *)
let ctype_memo_limit = 1024

let ctype_memo : (string, Est.Ctype.t) Hashtbl.t Locked.domain_local =
  Locked.new_domain_local (fun () -> Hashtbl.create ctype_memo_limit)

let ctype s =
  let memo = Locked.domain_local_get ctype_memo in
  match Hashtbl.find memo s with
  | t -> t
  | exception Not_found ->
      let t = Est.Ctype.of_string s in
      if Hashtbl.length memo >= ctype_memo_limit then Hashtbl.clear memo;
      Hashtbl.add memo s t;
      t

let value s = Est.Value.of_string s
let capitalize = String.capitalize_ascii

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.17g" f in
    (* Use the shortest representation that round-trips. *)
    let shorter = Printf.sprintf "%g" f in
    if float_of_string shorter = f then shorter else s
