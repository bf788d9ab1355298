type t = { cap : int; mutable draining : bool; mutable unanswered : int }
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
type settle = Drained | Aborted of int | Pending

let create ~cap = { cap; draining = false; unanswered = 0 }
let conn () = { inflight = 0 }

let arrive t c ~expiry ~now =
  if t.draining then Refuse Draining
  else if t.cap > 0 && c.inflight >= t.cap then Refuse Over_cap
  else
    match expiry with
    | Some x when now >= x -> Refuse Expired_at_decode
    | _ ->
        c.inflight <- c.inflight + 1;
        t.unanswered <- t.unanswered + 1;
        Run

let finish t c =
  c.inflight <- c.inflight - 1;
  t.unanswered <- t.unanswered - 1

let submitted t c outcome =
  finish t c;
  match outcome with
  | `Rejected reason -> Rejected reason
  | `Expired -> Expired_awaiting_space

let pickup ~expiry ~now ~service_us =
  match expiry with
  | Some x when now >= x -> Refuse Expired_in_queue
  | Some x when service_us > 0 && x -. now < 1.25 *. float_of_int service_us /. 1e6 ->
      Refuse Doomed_in_queue
  | Some _ | None -> Run

let cancel t c =
  finish t c;
  Cancelled

let settled t ~deadline ~now =
  if t.unanswered = 0 then Drained
  else if now >= deadline then Aborted t.unanswered
  else Pending
