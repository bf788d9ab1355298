(* Shared helpers for the test suites. *)

(* Substring search (Boyer-Moore not needed at test sizes). *)
let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then true
  else
    let rec scan i =
      if i + nl > hl then false
      else if String.sub haystack i nl = needle then true
      else scan (i + 1)
    in
    scan 0

let check_contains ~what haystack needle =
  if not (contains haystack needle) then
    Alcotest.failf "%s: expected to find %S in:\n%s" what needle haystack

let check_not_contains ~what haystack needle =
  if contains haystack needle then
    Alcotest.failf "%s: expected NOT to find %S in:\n%s" what needle haystack

(* Compare two texts ignoring trailing whitespace and blank-line runs —
   for golden tests against the paper's figures. *)
let normalize text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         let n = String.length line in
         let rec rstrip i =
           if i > 0 && (line.[i - 1] = ' ' || line.[i - 1] = '\t') then rstrip (i - 1)
           else i
         in
         String.sub line 0 (rstrip n))
  |> List.filter (fun l -> l <> "")
  |> String.concat "\n"

let check_golden ~what ~expected ~actual =
  Alcotest.(check string) what (normalize expected) (normalize actual)

(* Index of the first occurrence of [needle], or test failure. *)
let find haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then
      Alcotest.failf "expected to find %S in:\n%s" needle haystack
    else if String.sub haystack i nl = needle then i
    else scan (i + 1)
  in
  scan 0

(* Run [f] under a watchdog: if it has not returned within [seconds],
   the watchdog runs [on_expiry] — closing the channel [f] blocks on, so
   its read fails — and the check fails with a message naming [what] and
   the bound. The watchdog is cancelled the moment [f] returns. It parks
   in [select] on a pipe that the cancel writes to, so a check that
   finishes in time costs no wait. *)
let with_watchdog ~seconds ~what ~on_expiry f =
  let cancel_r, cancel_w = Unix.pipe ~cloexec:true () in
  let fired = Atomic.make false in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec watch () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then begin
      Atomic.set fired true;
      try on_expiry () with _ -> ()
    end
    else
      match Unix.select [ cancel_r ] [] [] left with
      | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> watch ()
      | _ -> ()
  in
  let dog = Thread.create watch () in
  let finish () =
    ignore (Unix.write_substring cancel_w "x" 0 1);
    Thread.join dog;
    Unix.close cancel_r;
    Unix.close cancel_w;
    if Atomic.get fired then
      failwith
        (Printf.sprintf "%s: not done within %.1f s (watchdog closed the channel)"
           what seconds)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* The process's OS thread count (threads and domains alike), from
   [/proc/self/status]; [None] where that file does not exist. *)
let count_threads () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 8 && String.sub line 0 8 = "Threads:"
              ->
                int_of_string_opt
                  (String.trim (String.sub line 8 (String.length line - 8)))
            | _ -> scan ()
            | exception End_of_file -> None
          in
          scan ())
