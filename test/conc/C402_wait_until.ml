(* Seeded C402: a deadline wait on a lock other than the innermost held
   one. The wait releases [outer] while [inner] stays taken, so every
   thread needing [inner] stalls until the deadline — and the waiter
   wakes holding [outer] again above [inner], inverting the ranks. *)

let outer = Locked.create ~name:"fixture.outer" ~rank:Locked.Rank.pool
let inner = Locked.create ~name:"fixture.inner" ~rank:Locked.Rank.mux

let wrong at =
  Locked.with_lock outer (fun () ->
      Locked.with_lock inner (fun () -> ignore (Locked.wait_until outer at)))

let right at =
  Locked.with_lock outer (fun () -> ignore (Locked.wait_until outer at))
