type compat = name:string -> offered:int -> local:int -> bool
type verdict = Chosen of Protocol.t | Unknown of string | Fallback

let answer ~codecs ~(compat : compat) reply =
  match reply with
  | Protocol.Reply { Protocol.nego_answer = tok; _ } when tok <> "" -> (
      match Protocol.Nego.parse_token tok with
      | Some (name, ver) -> (
          match List.find_opt (fun p -> p.Protocol.name = name) codecs with
          | Some p
            when ver = p.Protocol.version
                 || compat ~name ~offered:ver ~local:p.Protocol.version ->
              Chosen p
          | Some _ | None -> Unknown tok)
      | None -> Unknown tok)
  | _ -> Fallback

type server = {
  mutable negotiated : bool;
  mutable pending : (string * Protocol.t) option;
}

type offer = Switch of Protocol.t | No_common | Ignored

let server () = { negotiated = false; pending = None }

let offer s ~codecs ~(compat : compat) (req : Protocol.request) =
  if req.Protocol.oneway || codecs = [] || s.negotiated
  then Ignored
  else begin
    s.negotiated <- true;
    match
      Protocol.Nego.choose ~offer:req.Protocol.nego_offer ~supported:codecs
        ~compatible:compat
    with
    | Some (p, tok) ->
        s.pending <- Some (tok, p);
        Switch p
    | None -> No_common
  end

let take_answer s =
  let a = s.pending in
  s.pending <- None;
  a
