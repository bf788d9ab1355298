type t = { cap : int; mutable draining : bool }
type conn = { mutable inflight : int }

type refusal =
  | Draining
  | Over_cap
  | Expired_at_decode
  | Rejected of string
  | Expired_awaiting_space
  | Expired_in_queue
  | Doomed_in_queue
  | Cancelled

type verdict = Run | Refuse of refusal

let create ~cap = { cap; draining = false }
let conn () = { inflight = 0 }

let arrive t c ~expiry ~now =
  if t.draining then Refuse Draining
  else if t.cap > 0 && c.inflight >= t.cap then Refuse Over_cap
  else
    match expiry with
    | Some x when now >= x -> Refuse Expired_at_decode
    | _ ->
        c.inflight <- c.inflight + 1;
        Run

let finish c = c.inflight <- c.inflight - 1

let submitted c outcome =
  finish c;
  match outcome with
  | `Rejected reason -> Rejected reason
  | `Expired -> Expired_awaiting_space

let pickup ~expiry ~now ~service_us =
  match expiry with
  | Some x when now >= x -> Refuse Expired_in_queue
  | Some x when service_us > 0 && x -. now < 1.25 *. float_of_int service_us /. 1e6 ->
      Refuse Doomed_in_queue
  | Some _ | None -> Run

let cancel c =
  finish c;
  Cancelled
