type compat = name:string -> offered:int -> local:int -> bool
type verdict = Chosen of Protocol.t | Unknown of string | Resend | Fallback

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let answer ~codecs ~(compat : compat) msg reply =
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
  | Protocol.Reply { Protocol.status = Protocol.Status_system_error m; _ }
    when (match msg with
         | Protocol.Request { Protocol.budget_us = None; _ } -> true
         | _ -> false)
         && contains_sub ~sub:"malformed deadline slot" m ->
      Resend
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
