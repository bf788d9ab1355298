let all : Mapping.t list =
  [
    Heidi_cpp.mapping;
    Corba_cpp.mapping;
    Java_map.mapping;
    Tcl_map.mapping;
    Ocaml_map.mapping;
  ]

let find name = List.find_opt (fun (m : Mapping.t) -> m.Mapping.name = name) all
let names = List.map (fun (m : Mapping.t) -> m.Mapping.name) all

let all_maps () =
  List.fold_left
    (fun acc (m : Mapping.t) -> Template.Maps.union acc m.Mapping.maps)
    (Template.Maps.create ()) all
