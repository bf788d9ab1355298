(* Retry policies: configurable attempts, exponential backoff with
   deterministic jitter, and the error taxonomy that decides what is
   safe to try again. *)

type error_class = Transient | Deadline | Permanent

exception Budget_exhausted of string

let () =
  Printexc.register_printer (function
    | Budget_exhausted m -> Some (Printf.sprintf "Retry.Budget_exhausted: %s" m)
    | _ -> None)

let classify = function
  | Transport.Timeout _ -> Deadline
  | Transport.Transport_error _ -> Transient
  | _ -> Permanent

(* A client-wide retry budget: a token bucket replenished by successes,
   drained by retries. Per-call [max_attempts] bounds one call's worst
   case; the budget bounds the *aggregate* retry ratio, so correlated
   failures (a replica set dying at once, a network partition) cannot
   amplify every in-flight call into a synchronized retry storm — the
   metastable feedback loop admission control alone cannot see. The
   initial reserve lets a cold client ride out a startup blip; in steady
   state the ratio dominates: ~[ratio] retries per success.

   State is one Atomic int of milli-tokens, updated by CAS loops only
   (the C405 rule: no split read-modify-write), so any thread or domain
   may deposit/withdraw without a lock. *)
module Budget = struct
  type t = {
    tokens : int Atomic.t;  (* milli-tokens: 1000 = one retry credit *)
    deposit_mt : int;  (* milli-tokens credited per recorded success *)
    cap_mt : int;  (* bucket bound: old successes must not bank forever *)
    exhaustions : int Atomic.t;  (* withdrawals refused *)
  }

  type config = { ratio : float; reserve : int; cap : int }

  (* 10% steady-state retry ratio, 100 retries of initial reserve, the
     bucket capped at 250 banked retries. *)
  let default_config = { ratio = 0.1; reserve = 100; cap = 250 }

  let create ?(config = default_config) () =
    {
      tokens = Atomic.make (max 0 config.reserve * 1000);
      deposit_mt =
        max 0 (int_of_float (Float.min 1.0 (Float.max 0. config.ratio) *. 1000.));
      cap_mt = max 1000 (config.cap * 1000);
      exhaustions = Atomic.make 0;
    }

  let rec deposit t =
    let cur = Atomic.get t.tokens in
    let next = min t.cap_mt (cur + t.deposit_mt) in
    if next <> cur && not (Atomic.compare_and_set t.tokens cur next) then
      deposit t

  let rec try_withdraw t =
    let cur = Atomic.get t.tokens in
    if cur < 1000 then begin
      ignore (Atomic.fetch_and_add t.exhaustions 1);
      false
    end
    else if Atomic.compare_and_set t.tokens cur (cur - 1000) then true
    else try_withdraw t

  let balance t = Atomic.get t.tokens / 1000
  let exhaustions t = Atomic.get t.exhaustions
end

type policy = {
  max_attempts : int;
  base_delay : float;
  multiplier : float;
  max_delay : float;
  jitter : float;
  seed : int;
}

let default =
  {
    max_attempts = 3;
    base_delay = 0.002;
    multiplier = 2.0;
    max_delay = 0.25;
    jitter = 0.2;
    seed = 0;
  }

let none = { default with max_attempts = 1 }

let delay_for p ~attempt =
  let attempt = max 1 attempt in
  let exp = p.base_delay *. (p.multiplier ** float_of_int (attempt - 1)) in
  let capped = Float.min exp p.max_delay in
  if p.jitter <= 0. || capped <= 0. then capped
  else
    (* Jitter drawn from a state keyed by (seed, attempt): the schedule
       is fully determined by the policy, so tests can assert it. *)
    let st = Random.State.make [| p.seed; attempt |] in
    let factor = 1. -. p.jitter +. (2. *. p.jitter *. Random.State.float st 1.0) in
    Float.max 0. (capped *. factor)

(* The at-most-once rule (DESIGN.md §5): only a Transient failure whose
   request provably did not execute may go out again — to this
   placement or to another one. *)
let resend_safe cls ~unsent = unsent && cls = Transient

type verdict = Retry_after of float | Give_up | Exhausted

let decide p ~budget ~attempt cls ~unsent ~deadline ~now =
  if attempt >= p.max_attempts || not (resend_safe cls ~unsent) then Give_up
  else
    let nap = delay_for p ~attempt in
    match deadline with
    | Some d when now +. nap >= d ->
        (* The next attempt could not start before the deadline: fail
           now with this attempt's own error instead of sleeping first. *)
        Give_up
    | _ -> if Budget.try_withdraw budget then Retry_after nap else Exhausted
