exception Reject of string

let () =
  Printexc.register_printer (function
    | Reject m -> Some (Printf.sprintf "Orb.Interceptor.Reject: %s" m)
    | _ -> None)

type t = {
  name : string;
  on_request : Protocol.request -> Protocol.request;
  on_reply : Protocol.request -> Protocol.reply -> Protocol.reply;
  on_error : Protocol.request -> exn -> unit;
}

let make ?(on_request = Fun.id) ?(on_reply = fun _ r -> r)
    ?(on_error = fun _ _ -> ()) name =
  { name; on_request; on_reply; on_error }

(* Registration order. Read with one atomic load per call; [add] is
   rare, so it copies the list and swings the pointer. *)
type chain = t list Atomic.t

let empty_chain () = Atomic.make []
let add chain i = Locked.update chain (fun items -> (items @ [ i ], ()))

let names chain = List.map (fun i -> i.name) (Atomic.get chain)

let apply_request chain req =
  List.fold_left (fun req i -> i.on_request req) req (Atomic.get chain)

let apply_reply chain req rep =
  List.fold_right (fun i rep -> i.on_reply req rep) (Atomic.get chain) rep

let apply_error chain req exn =
  List.iter (fun i -> i.on_error req exn) (Atomic.get chain)

(* ---------------- stock interceptors ---------------- *)

let logger emit =
  {
    name = "logger";
    on_request =
      (fun req ->
        emit
          (Printf.sprintf "-> %s %s(#%d)%s" req.Protocol.operation
             (Objref.to_string req.Protocol.target)
             req.Protocol.req_id
             (if req.Protocol.oneway then " oneway" else ""));
        req);
    on_reply =
      (fun req rep ->
        emit
          (Printf.sprintf "<- %s(#%d) %s" req.Protocol.operation
             rep.Protocol.rep_id
             (Protocol.status_to_string rep.Protocol.status));
        rep);
    on_error =
      (fun req exn ->
        emit
          (Printf.sprintf "!! %s(#%d) %s" req.Protocol.operation
             req.Protocol.req_id (Printexc.to_string exn)));
  }

let call_counter () =
  let count = Atomic.make 0 in
  ( {
      name = "call-counter";
      on_request =
        (fun req ->
          Atomic.incr count;
          req);
      on_reply = (fun _ rep -> rep);
      on_error = (fun _ _ -> ());
    },
    fun () -> Atomic.get count )

let failure_counter () =
  let count = Atomic.make 0 in
  ( {
      name = "failure-counter";
      on_request = Fun.id;
      on_reply = (fun _ rep -> rep);
      on_error = (fun _ _ -> Atomic.incr count);
    },
    fun () -> Atomic.get count )

let deny pred ~reason =
  {
    name = "deny";
    on_request =
      (fun req ->
        if
          pred ~op:req.Protocol.operation
            ~type_id:req.Protocol.target.Objref.type_id
        then raise (Reject reason)
        else req);
    on_reply = (fun _ rep -> rep);
    on_error = (fun _ _ -> ());
  }
