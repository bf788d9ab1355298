(* Properties live in two parallel arrays, keys and values, filled in
   insertion order up to [n_count] and doubled when full; the tree's
   nodes hold a handful each, so a linear scan is the lookup. A value is
   stored wrapped in [Some], so [prop] returns it as is. Children are
   kept newest first, so an append is one cons. Each group also caches
   its children in insertion order: an append clears the cache and the
   next [group] rebuilds it once, so the reads that template evaluation
   makes over a finished tree allocate nothing. Two domains reading a
   finished tree may both rebuild a cleared cache; both store equal
   lists, so the race is harmless. The scans below are top-level
   functions, not local closures, so that a lookup allocates nothing. *)

type t = {
  n_name : string;
  n_kind : string;
  mutable n_keys : string array;
  mutable n_values : string option array;  (* [Some] in every slot *)
  mutable n_count : int;
  mutable n_groups : group list;  (* newest first *)
}

and group = {
  g_name : string;
  mutable g_rev : t list;  (* newest first *)
  mutable g_fwd : t list option;  (* [g_rev] reversed; [None] after an append *)
}

let create ~name ~kind =
  { n_name = name; n_kind = kind; n_keys = [||]; n_values = [||]; n_count = 0; n_groups = [] }

let name n = n.n_name
let kind n = n.n_kind

(* The index of [key] among the first [count] keys, or -1. *)
let rec find_key keys count key i =
  if i >= count then -1
  else if String.equal (Array.unsafe_get keys i) key then i
  else find_key keys count key (i + 1)

(* A node's first property makes room for eight, what a parameter node
   of {!Build} holds, as literal arrays filled with copies of it: the
   compiler allocates those inline, where [Array.make] calls into the
   runtime. A full node doubles its arrays by appending each to itself.
   Slots at or past [n_count] hold such stale copies; nothing reads
   them. *)
let add_prop n key value =
  let v = Some value in
  let i = find_key n.n_keys n.n_count key 0 in
  if i >= 0 then n.n_values.(i) <- v
  else begin
    if n.n_count = 0 then begin
      n.n_keys <- [| key; key; key; key; key; key; key; key |];
      n.n_values <- [| v; v; v; v; v; v; v; v |]
    end
    else begin
      if n.n_count = Array.length n.n_keys then begin
        n.n_keys <- Array.append n.n_keys n.n_keys;
        n.n_values <- Array.append n.n_values n.n_values
      end;
      n.n_keys.(n.n_count) <- key;
      n.n_values.(n.n_count) <- v
    end;
    n.n_count <- n.n_count + 1
  end

let prop n key =
  let i = find_key n.n_keys n.n_count key 0 in
  if i < 0 then None else Array.unsafe_get n.n_values i

let prop_or n key ~default = Option.value ~default (prop n key)
let props n = List.init n.n_count (fun i -> (n.n_keys.(i), Option.get n.n_values.(i)))

(* Whether a group named [name] took [child]. *)
let rec add_to_group name child = function
  | [] -> false
  | g :: rest ->
      if String.equal g.g_name name then begin
        g.g_rev <- child :: g.g_rev;
        g.g_fwd <- None;
        true
      end
      else add_to_group name child rest

let add_child n ~group child =
  if not (add_to_group group child n.n_groups) then
    n.n_groups <- { g_name = group; g_rev = [ child ]; g_fwd = None } :: n.n_groups

let children g =
  match g.g_fwd with
  | Some l -> l
  | None ->
      let l = List.rev g.g_rev in
      g.g_fwd <- Some l;
      l

let rec find_group name = function
  | [] -> []
  | g :: rest -> if String.equal g.g_name name then children g else find_group name rest

let group n name = find_group name n.n_groups

let groups n = List.rev_map (fun g -> (g.g_name, children g)) n.n_groups

let rec iter f n =
  f n;
  (* Oldest group first, without reversing the list. *)
  let rec iter_groups = function
    | [] -> ()
    | g :: rest ->
        iter_groups rest;
        List.iter (iter f) (children g)
  in
  iter_groups n.n_groups

let size n =
  let count = ref 0 in
  iter (fun _ -> incr count) n;
  !count

let rec equal a b =
  a.n_name = b.n_name && a.n_kind = b.n_kind && props a = props b
  &&
  let ga = groups a and gb = groups b in
  List.length ga = List.length gb
  && List.for_all2
       (fun (g1, c1) (g2, c2) ->
         g1 = g2 && List.length c1 = List.length c2 && List.for_all2 equal c1 c2)
       ga gb
