(* Clocks, sample buffers, quantiles and the run report shared by the
   workloads. *)

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A growable buffer of float samples, one per caller thread. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 4096 0.; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let sorted l =
  let a = Array.concat (List.map (fun s -> Array.sub s.a 0 s.n) l) in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* Samples strictly above the [q] quantile. *)
let beyond a q =
  let v = quantile a q in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 a

let median l = quantile (let a = Array.of_list l in Array.sort compare a; a) 0.5

let mean a = if Array.length a = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* A float accumulator shared across domains (servant busy time). *)
let rec atomic_add cell d =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. d)) then atomic_add cell d

(* Reads to end of file, so it also works on /proc files, whose length
   reads as 0. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* "Key:  value" lines of /proc/self/status. *)
let proc_status key =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when String.sub l 0 i = key ->
                 Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)

let peak_rss_mb () =
  match proc_status "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> nan

(* Steal and total CPU ticks of the host so far, from /proc/stat: on a
   shared VM, time the hypervisor gave to other guests. *)
let cpu_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | l :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | "cpu" :: fields ->
          let t = List.map int_of_string fields in
          (List.nth t 7, List.fold_left ( + ) 0 t)
      | _ -> (0, 0))
  | [] -> (0, 0)
  | exception Sys_error _ -> (0, 0)

(* The share of the host's CPU time stolen since [cpu_ticks] gave
   [(s0, t0)]; nan when the counters did not move. *)
let steal_since (s0, t0) =
  let s1, t1 = cpu_ticks () in
  if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else nan

let pct f = if Float.is_nan f then "unknown" else Printf.sprintf "%.1f%%" (f *. 100.)

let steal_pct ticks = pct (steal_since ticks)

(* CPUs this process may run on, as nproc(1) counts them. *)
let nproc () =
  match proc_status "Cpus_allowed_list" with
  | None -> 0
  | Some l ->
      String.split_on_char ',' l
      |> List.fold_left
           (fun acc r ->
             match String.split_on_char '-' r with
             | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
             | [ _ ] -> acc + 1
             | _ -> acc)
           0

(* {1 The run report} *)

type metric = { name : string; value : float; unit_ : string }

type report = {
  attempted : int;
  failed : int;
  metrics : metric list;
  config : (string * string) list;  (** Host and run configuration. *)
  problems : string list;  (** Failed checks and invariants. *)
}

let m name unit_ value = { name; value; unit_ }

(* {1 Windows}

   A measured run is cut into equal stretches of time. Each
   end-to-end rate and ratio is the interquartile mean of its per-window
   values: the mean of the middle half. On a shared host the speed of
   the machine drifts in episodes of a few seconds; dropping the fastest
   and slowest quarter of the windows keeps one episode from moving the
   result much, and averaging the rest keeps the result from jumping
   between a fast and a slow value as a median of two clusters would. *)

let iqm l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  let k = n / 4 in
  mean (Array.sub a k (n - (2 * k)))

(* Windows in an idl_compile run. *)
let windows = 10

type window = {
  dt : float;  (** Seconds. *)
  ops : int;  (** Completed ops. *)
  cpu : float;  (** Process CPU seconds. *)
  bytes : int;  (** Payload bytes. *)
  lat : float array;  (** The window's op latencies, sorted, seconds. *)
}

(* Quantile [p] of each window's latencies, then their interquartile
   mean. *)
let window_quantile ws p = iqm (List.map (fun w -> quantile w.lat p) ws)

(* The end-to-end metrics. [q p] is the latency quantile [p], seconds. *)
let end_to_end ~setup ~q ws =
  let w f = iqm (List.map f ws) in
  [
    m "setup_s" "s" setup;
    m "ops_per_s" "op/s" (w (fun x -> float_of_int x.ops /. x.dt));
    m "op_p50_us" "us" (q 0.5 *. 1e6);
    m "op_p90_us" "us" (q 0.9 *. 1e6);
    m "op_p99_us" "us" (q 0.99 *. 1e6);
    m "cpu_us_per_op" "us" (w (fun x -> x.cpu /. float_of_int x.ops *. 1e6));
    m "payload_mb_per_s" "MB/s" (w (fun x -> float_of_int x.bytes /. x.dt /. 1e6));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
  ]

(* {1 Quiet windows}

   A call hops between threads and domains several times, and each hop
   waits for a CPU. On a shared VM the hypervisor takes the CPUs away
   for a share of the time (steal in /proc/stat) that changes from
   second to second and from minute to minute, and a stolen slice delays
   every hop waiting behind it: the call rate falls faster than the
   steal rises, so an average over a whole run mostly tells how busy the
   host's other guests were. The RPC workload therefore cuts a run into
   many short windows, notes each window's steal, and aggregates only
   the windows no more stolen from than the median window. *)

(* [ws] pairs each window's steal share with the window. Keeps the
   pairs whose steal is at most the median steal (ties included, so a
   host without steal keeps every window). *)
let quietest ws =
  let s = Array.of_list (List.map fst ws) in
  Array.sort compare s;
  let cut = s.(max 0 (((Array.length s + 1) / 2) - 1)) in
  if Float.is_nan cut then ws else List.filter (fun (x, _) -> x <= cut) ws
