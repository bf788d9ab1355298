(* Properties and children are kept newest first, so an append is one
   cons. Each group also caches its children in insertion order: an
   append clears the cache and the next [group] rebuilds it once, so the
   reads that template evaluation makes over a finished tree allocate
   nothing. Two domains reading a finished tree may both rebuild a
   cleared cache; both store equal lists, so the race is harmless. *)

type prop = {
  key : string;
  mutable value : string option;  (* always [Some]: [prop] returns it as is *)
}

type t = {
  n_name : string;
  n_kind : string;
  mutable n_props : prop list;  (* newest first *)
  mutable n_groups : group list;  (* newest first *)
}

and group = {
  g_name : string;
  mutable g_rev : t list;  (* newest first *)
  mutable g_fwd : t list option;  (* [g_rev] reversed; [None] after an append *)
}

let create ~name ~kind = { n_name = name; n_kind = kind; n_props = []; n_groups = [] }
let name n = n.n_name
let kind n = n.n_kind

let add_prop n key value =
  let rec go = function
    | [] -> n.n_props <- { key; value = Some value } :: n.n_props
    | p :: rest -> if String.equal p.key key then p.value <- Some value else go rest
  in
  go n.n_props

let prop n key =
  let rec go = function
    | [] -> None
    | p :: rest -> if String.equal p.key key then p.value else go rest
  in
  go n.n_props

let prop_or n key ~default = Option.value ~default (prop n key)
let props n = List.rev_map (fun p -> (p.key, Option.get p.value)) n.n_props

let add_child n ~group child =
  let rec go = function
    | [] -> n.n_groups <- { g_name = group; g_rev = [ child ]; g_fwd = None } :: n.n_groups
    | g :: rest ->
        if String.equal g.g_name group then begin
          g.g_rev <- child :: g.g_rev;
          g.g_fwd <- None
        end
        else go rest
  in
  go n.n_groups

let children g =
  match g.g_fwd with
  | Some l -> l
  | None ->
      let l = List.rev g.g_rev in
      g.g_fwd <- Some l;
      l

let group n name =
  let rec go = function
    | [] -> []
    | g :: rest -> if String.equal g.g_name name then children g else go rest
  in
  go n.n_groups

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
