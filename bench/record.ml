(* The bench record: the one shape every experiment (E9-E15) writes,
   and the one validator that reads it back.

     {"experiment": "E11",
      "host": {"cores": 2, "ocaml": "5.1.1"},
      "config": {"transport": "mem", "duration_s": 0.4, ...},
      "repeats": 1,
      "cells": [{"labels": {"protocol": "heidi-text", "threads": "8"},
                 "metrics": {"ok_per_s": {"median": 3387.5,
                                          "p10": 3387.5, "p90": 3387.5}}}]}

   Labels say which cell it is (strings); metrics are what was measured
   there, each a median with its p10/p90 over [repeats] runs (equal when
   the experiment runs once). Each experiment declares its config keys,
   cell kinds and gates (bench/gates.ml); [failures] checks a record
   against that declaration.

   Writing goes through Obs.Jout. Reading uses a hand-rolled parser: the
   repo has no JSON dependency and Jout only writes. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

type stat = { median : float; p10 : float; p90 : float }
type cell = { labels : (string * string) list; metrics : (string * stat) list }

type t = {
  experiment : string;
  host : (string * json) list;
  config : (string * json) list;
  repeats : int;
  cells : cell list;
}

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* ---------------- building a record ---------------- *)

(* The element at rank [p] of [xs], 0 for an empty list. *)
let quantile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0. else a.(min (n - 1) (int_of_float (p *. float_of_int n)))

let spread xs =
  { median = quantile 0.5 xs; p10 = quantile 0.1 xs; p90 = quantile 0.9 xs }

let once v = { median = v; p10 = v; p90 = v }

(* A cell of single-run metrics. *)
let cell labels metrics =
  { labels; metrics = List.map (fun (k, v) -> (k, once v)) metrics }

(* A numeric label in the shortest spelling that reads back exactly. *)
let num_label f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let make ~experiment ?(repeats = 1) ~config cells =
  {
    experiment;
    host =
      [
        ("cores", Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Str Sys.ocaml_version);
      ];
    config;
    repeats;
    cells;
  }

(* ---------------- writing ---------------- *)

let rec render = function
  | Null -> Obs.Jout.null
  | Bool b -> Obs.Jout.bool b
  | Num f -> Obs.Jout.num f
  | Str s -> Obs.Jout.str s
  | Arr l -> Obs.Jout.arr (List.map render l)
  | Obj fs -> Obs.Jout.obj (List.map (fun (k, v) -> (k, render v)) fs)

let to_json r =
  let stat s =
    Obj [ ("median", Num s.median); ("p10", Num s.p10); ("p90", Num s.p90) ]
  in
  let cell c =
    Obj
      [
        ("labels", Obj (List.map (fun (k, v) -> (k, Str v)) c.labels));
        ("metrics", Obj (List.map (fun (k, s) -> (k, stat s)) c.metrics));
      ]
  in
  Obj
    [
      ("experiment", Str r.experiment);
      ("host", Obj r.host);
      ("config", Obj r.config);
      ("repeats", Num (float_of_int r.repeats));
      ("cells", Arr (List.map cell r.cells));
    ]

let write path r =
  let oc = open_out path in
  output_string oc (render (to_json r));
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" path

(* ---------------- the console table ---------------- *)

let table header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    List.iter2 (fun w cell -> Printf.printf "  %-*s" (w + 2) cell) widths row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let series c = List.assoc_opt "series" c.labels

(* [xs] without repeats, in first-seen order. *)
let uniq xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

(* The config on one line, then one table per series whose columns are
   its cells' label and metric names. A metric with a spread prints as
   "median [p10..p90]". *)
let print r =
  let num v =
    if Float.is_integer v || Float.abs v >= 100. then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.3g" v
  in
  let stat s =
    if s.p10 = s.median && s.p90 = s.median then num s.median
    else Printf.sprintf "%s [%s..%s]" (num s.median) (num s.p10) (num s.p90)
  in
  let value = function Str s -> s | Num f -> num f | j -> render j in
  Printf.printf "  %s; repeats %d\n"
    (String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ value v) r.config))
    r.repeats;
  List.iter
    (fun s ->
      let cs = List.filter (fun c -> series c = s) r.cells in
      let keys f =
        uniq (List.concat_map (fun c -> List.map fst (f c)) cs)
        |> List.filter (( <> ) "series")
      in
      let lk = keys (fun c -> c.labels) and mk = keys (fun c -> c.metrics) in
      let col find show c k =
        Option.fold ~none:"-" ~some:show (List.assoc_opt k (find c))
      in
      Option.iter (Printf.printf "  %s:\n") s;
      table (lk @ mk)
        (List.map
           (fun c ->
             List.map (col (fun c -> c.labels) Fun.id c) lk
             @ List.map (col (fun c -> c.metrics) stat c) mk)
           cs))
    (uniq (List.map series r.cells))

(* ---------------- reading ---------------- *)

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char buf '\r';
              advance ();
              go ()
          | Some 'u' ->
              (* \uXXXX: decode to a raw byte for ASCII range; enough for
                 artifacts this repo emits (control chars only). *)
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail "bad \\u escape");
              go ()
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a JSON value"
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !fields)
    end
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let items = ref [] in
      let rec go () =
        let v = parse_value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      go ();
      Arr (List.rev !items)
    end
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | Obj fs -> (
      match List.assoc_opt name fs with
      | Some v -> v
      | None -> bad "missing field %S" name)
  | _ -> bad "expected an object around %S" name

(* Rule required-keys: the five keys with their types, a host with
   cores >= 1 and an ocaml version (null where an artifact did not
   record its host), repeats >= 1, and every cell's labels (strings)
   and metrics (median, p10, p90). A null metric (Jout's spelling of
   NaN) reads as NaN, for rule metric-spread. *)
let of_json j =
  let str name o =
    match field name o with
    | Str s -> s
    | _ -> bad "field %S must be a string" name
  in
  let num name o =
    match field name o with
    | Num f -> f
    | Null -> nan
    | _ -> bad "field %S must be a number" name
  in
  let obj name o =
    match field name o with
    | Obj fs -> fs
    | _ -> bad "field %S must be an object" name
  in
  let stat m = { median = num "median" m; p10 = num "p10" m; p90 = num "p90" m } in
  let cell c =
    {
      labels =
        List.map
          (function k, Str v -> (k, v) | k, _ -> bad "label %S must be a string" k)
          (obj "labels" c);
      metrics = List.map (fun (k, m) -> (k, stat m)) (obj "metrics" c);
    }
  in
  try
    let host_fields = obj "host" j in
    let host = Obj host_fields in
    if field "cores" host <> Null && not (num "cores" host >= 1.) then
      bad "host cores must be >= 1";
    if field "ocaml" host <> Null then ignore (str "ocaml" host);
    let repeats = num "repeats" j in
    if not (repeats >= 1.) then bad "repeats must be >= 1";
    {
      experiment = str "experiment" j;
      host = host_fields;
      config = obj "config" j;
      repeats = int_of_float repeats;
      cells =
        (match field "cells" j with
        | Arr cs -> List.map cell cs
        | _ -> bad "field \"cells\" must be an array");
    }
  with Bad m -> bad "rule required-keys: %s" m

let read path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  of_json (parse text)

(* ---------------- declarations and the validator ---------------- *)

(* What a declared config key or label holds: a string ([Text]), or a
   number above ([Gt]) or at least ([Ge]) a bound. Metrics are numbers,
   so a metric's [Text] only asks for its presence. *)
type bound = Text | Gt of float | Ge of float

(* The cells of one series (the "series" label; [None] for cells that
   carry none) and the labels and metrics each must carry. *)
type kind = {
  k_series : string option;
  k_labels : (string * bound) list;
  k_metrics : (string * bound) list;
}

(* A gate: the one-line claim it checks, and a predicate over the
   record. A predicate that cannot find what it compares raises [Bad]. *)
type gate = { name : string; claim : string; holds : t -> bool }

type spec = {
  s_experiment : string;
  s_config : (string * bound) list;
  s_kinds : kind list;
  s_gates : gate list;
}

let kind ?series labels metrics =
  { k_series = series; k_labels = labels; k_metrics = metrics }

let gate name claim holds = { name; claim; holds }

(* Accessors for gate predicates. *)
let label k c =
  match List.assoc_opt k c.labels with Some v -> v | None -> bad "no label %S" k

let label_num k c =
  match float_of_string_opt (label k c) with
  | Some f -> f
  | None -> bad "label %S must be a number" k

let metric k c =
  match List.assoc_opt k c.metrics with
  | Some s -> s.median
  | None -> bad "no metric %S" k

let number what k = function
  | Some (Num f) -> f
  | _ -> bad "%s %S must be a number" what k

let config_num k r = number "config" k (List.assoc_opt k r.config)
let host_num k r = number "host" k (List.assoc_opt k r.host)
let cells_of s r = List.filter (fun c -> series c = Some s) r.cells

let within what v = function
  | Text -> ()
  | Gt b -> if not (v > b) then bad "%s must be > %g (got %g)" what b v
  | Ge b -> if not (v >= b) then bad "%s must be >= %g (got %g)" what b v

(* Every violated validator rule, as one line naming it. *)
let violations spec r =
  let errs = ref [] in
  let rule name f =
    try f () with Bad m -> errs := ("rule " ^ name ^ ": " ^ m) :: !errs
  in
  let name s = Option.value ~default:"(none)" s in
  rule "cells-nonempty" (fun () ->
      if r.cells = [] then bad "cells must be non-empty");
  List.iter
    (fun c ->
      List.iter
        (fun (k, s) ->
          rule "metric-spread" (fun () ->
              if
                not
                  (List.for_all Float.is_finite [ s.p10; s.median; s.p90 ]
                  && s.p10 <= s.median && s.median <= s.p90)
              then bad "%s must be finite with p10 <= median <= p90" k))
        c.metrics)
    r.cells;
  List.iter
    (fun (k, b) ->
      rule "declared-config" (fun () ->
          match (List.assoc_opt k r.config, b) with
          | Some (Str _), Text -> ()
          | Some (Num f), (Gt _ | Ge _) -> within ("config " ^ k) f b
          | Some _, _ -> bad "config %S has the wrong type" k
          | None, _ -> bad "missing config %S" k))
    spec.s_config;
  List.iter
    (fun c ->
      rule "declared-cells" (fun () ->
          match List.find_opt (fun kd -> kd.k_series = series c) spec.s_kinds with
          | None -> bad "undeclared series %s" (name (series c))
          | Some kd ->
              List.iter
                (fun (k, b) ->
                  if b = Text then ignore (label k c)
                  else within ("label " ^ k) (label_num k c) b)
                kd.k_labels;
              List.iter
                (fun (k, b) -> within ("metric " ^ k) (metric k c) b)
                kd.k_metrics))
    r.cells;
  List.iter
    (fun kd ->
      rule "declared-cells" (fun () ->
          if not (List.exists (fun c -> series c = kd.k_series) r.cells) then
            bad "no cell of series %s" (name kd.k_series)))
    spec.s_kinds;
  List.rev !errs

(* [violations], then every failed gate, one line each naming it; []
   when the record passes. *)
let failures spec r =
  let failed g detail =
    Some (Printf.sprintf "gate %s: %s%s" g.name g.claim detail)
  in
  violations spec r
  @ List.filter_map
      (fun g ->
        match g.holds r with
        | true -> None
        | false -> failed g ""
        | exception Bad m -> failed g (" (" ^ m ^ ")"))
      spec.s_gates
