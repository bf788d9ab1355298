(* Seeded C404, the ambient-setting shape: a module-level ref that a
   [with_]-style helper saves, sets and restores around a call. Every
   domain shares the one cell, so a restore in one domain can undo a
   setting made in another. The file names no concurrency primitive at
   all: the rule must see the write all the same. *)

let installed : string option ref = ref None

let swap v =
  let prev = !installed in
  installed := v;
  prev

let with_installed v f =
  let prev = swap (Some v) in
  Fun.protect ~finally:(fun () -> ignore (swap prev)) f

let current () = !installed
