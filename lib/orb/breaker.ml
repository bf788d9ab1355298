(* Per-endpoint circuit breakers: trip after consecutive connection
   failures, fast-fail while open, probe once after a cool-down. The
   decisions are [Circuit]'s plain functions of one endpoint's state and
   [~now]; the table of circuits is the only shared state, kept under
   the breaker lock. *)

exception Circuit_open of string

let () =
  Printexc.register_printer (function
    | Circuit_open m -> Some (Printf.sprintf "Orb.Breaker.Circuit_open: %s" m)
    | _ -> None)

type state = Closed | Open | Half_open

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = { failure_threshold : int; reset_timeout : float }

let default_config = { failure_threshold = 5; reset_timeout = 1.0 }

type ticket = int
type decision = Proceed of ticket | Probe of ticket | Fast_fail

module Circuit = struct
  type t = {
    mutable st : state;
    mutable failures : int;  (* consecutive, in this generation *)
    mutable opened_at : float;
    mutable gen : int;  (* bumped at every change of [st] *)
  }

  let create () = { st = Closed; failures = 0; opened_at = 0.; gen = 0 }

  (* A ticket is the generation it was issued in. None is issued while
     [Open], and [Half_open] issues exactly one, its probe's: so a
     current ticket always belongs to a [Closed] call or to the probe. *)
  let move c st =
    c.st <- st;
    c.gen <- c.gen + 1;
    c.failures <- 0

  let cooled cfg c ~now = now -. c.opened_at >= cfg.reset_timeout

  let gate cfg c ~now =
    match c.st with
    | Closed -> Proceed c.gen
    | Open when cooled cfg c ~now ->
        move c Half_open;
        Probe c.gen
    | Open | Half_open -> Fast_fail

  let available cfg c ~now =
    match c.st with
    | Closed -> true
    | Open -> cooled cfg c ~now
    | Half_open -> false

  let success c ticket =
    if ticket = c.gen then
      if c.st = Half_open then move c Closed else c.failures <- 0

  let failure cfg c ticket ~now =
    ticket = c.gen
    && begin
         c.failures <- c.failures + 1;
         let trip = c.st = Half_open || c.failures >= cfg.failure_threshold in
         if trip then begin
           move c Open;
           c.opened_at <- now
         end;
         trip
       end
end

type t = {
  cfg : config;
  lock : Locked.t;
  circuits : (string, Circuit.t) Hashtbl.t;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    lock = Locked.create ~name:"breaker" ~rank:Locked.Rank.breaker;
    circuits = Hashtbl.create 8;
  }

let with_circuit t key f =
  Locked.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.circuits key with
      | Some c -> f c
      | None ->
          let c = Circuit.create () in
          Hashtbl.replace t.circuits key c;
          f c)

let before_call t key ~now = with_circuit t key (Circuit.gate t.cfg ~now)
let success t key ticket = with_circuit t key (fun c -> Circuit.success c ticket)

let failure t key ticket ~now =
  with_circuit t key (fun c -> Circuit.failure t.cfg c ticket ~now)

let state t key = with_circuit t key (fun c -> c.Circuit.st)

let available t key ~now =
  Locked.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.circuits key with
      | None -> true
      | Some c -> Circuit.available t.cfg c ~now)

let states t =
  Locked.with_lock t.lock (fun () ->
      List.sort compare
        (Hashtbl.fold (fun key c acc -> (key, c.Circuit.st) :: acc) t.circuits []))
