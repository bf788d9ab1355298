(* Wire-level and call-level metrics: fixed-bucket latency histograms,
   per-endpoint byte counters, and named event counters.

   Concurrency: fully lock-free and domain-safe. Every *cell* is
   atomic — bucket counts, totals, byte counters and event counters
   are [Atomic.t], float accumulators use compare-and-set loops — and
   the registries (name -> cell) are immutable maps behind an
   [Atomic.t], updated by a compare-and-set loop on insert. A probe is
   one atomic load plus a map lookup, valid from any domain.

   This replaced the PR-7 shape (Hashtbl + lock, with an *unlocked*
   fast-path probe). That probe was benign under systhreads — the
   runtime lock made [Hashtbl.find_opt] observe the table either
   before or after a resize — but once observers run on worker
   domains, a concurrent [Hashtbl.replace]-triggered resize during the
   probe is a real data race (torn bucket array reads). An immutable
   snapshot can never be observed mid-resize, which is the whole
   point of the structure. *)

module Smap = Map.Make (String)

(* A grow-only, domain-safe registry. [find_or_create] publishes a new
   cell with compare-and-set and re-probes on collision, so two racing
   creators both end up updating the single surviving cell. *)
type 'a registry = 'a Smap.t Atomic.t

let registry () : 'a registry = Atomic.make Smap.empty

let rec find_or_create (reg : 'a registry) key make =
  let cur = Atomic.get reg in
  match Smap.find_opt key cur with
  | Some v -> v
  | None ->
      let v = make () in
      if Atomic.compare_and_set reg cur (Smap.add key v cur) then v
      else find_or_create reg key make  (* lost the race: take the winner's *)

(* Log-spaced 1-2-5 bucket upper bounds, in seconds: 1µs .. 5s, then an
   overflow bucket. Fixed buckets keep observation O(#buckets) with no
   allocation, and make snapshots directly comparable across runs. *)
let default_bounds =
  [|
    1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
    1e-2; 2e-2; 5e-2; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0;
  |]

type hist = {
  bounds : float array;
  counts : int Atomic.t array;  (* length bounds + 1; last = overflow *)
  total : int Atomic.t;
  sum_s : float Atomic.t;
  max_s : float Atomic.t;
}

type bytes_counter = {
  bytes_in : int Atomic.t;
  bytes_out : int Atomic.t;
  reads : int Atomic.t;
  writes : int Atomic.t;
}

type t = {
  hists : hist registry;
  bytes : bytes_counter registry;
  counters : int Atomic.t registry;
  gauges : float Atomic.t registry;  (* last-written-wins *)
}

let create () =
  {
    hists = registry ();
    bytes = registry ();
    counters = registry ();
    gauges = registry ();
  }

(* Accumulate a float into an atomic cell. Retry on collision; the
   compare-and-set loop is the sanctioned read-modify-write shape
   (expressing this as Atomic.get + Atomic.set is a C405). *)
let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

let rec atomic_max_float a x =
  let cur = Atomic.get a in
  if x > cur && not (Atomic.compare_and_set a cur x) then atomic_max_float a x

let new_hist () =
  {
    bounds = default_bounds;
    counts = Array.init (Array.length default_bounds + 1) (fun _ -> Atomic.make 0);
    total = Atomic.make 0;
    sum_s = Atomic.make 0.;
    max_s = Atomic.make 0.;
  }

let bucket_index bounds v =
  (* First bound >= v; linear scan — 22 comparisons max, cache-friendly. *)
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe t ~name seconds =
  if not (Float.is_nan seconds) then begin
    let h = find_or_create t.hists name new_hist in
    Atomic.incr h.counts.(bucket_index h.bounds seconds);
    Atomic.incr h.total;
    atomic_add_float h.sum_s seconds;
    atomic_max_float h.max_s seconds
  end

let new_bytes () =
  {
    bytes_in = Atomic.make 0;
    bytes_out = Atomic.make 0;
    reads = Atomic.make 0;
    writes = Atomic.make 0;
  }

let add_bytes t ~endpoint ~dir n =
  let c = find_or_create t.bytes endpoint new_bytes in
  match dir with
  | `In ->
      ignore (Atomic.fetch_and_add c.bytes_in n);
      Atomic.incr c.reads
  | `Out ->
      ignore (Atomic.fetch_and_add c.bytes_out n);
      Atomic.incr c.writes

let incr ?(by = 1) t ~name =
  ignore
    (Atomic.fetch_and_add
       (find_or_create t.counters name (fun () -> Atomic.make 0))
       by)

let set_gauge t ~name v =
  Atomic.set (find_or_create t.gauges name (fun () -> Atomic.make 0.)) v

(* ---------------- snapshots ---------------- *)

type hist_view = {
  name : string;
  total : int;
  sum_s : float;
  max_s : float;
  mean_s : float;
  buckets : (float * int) list;  (* (upper bound, count); last bound = inf *)
}

type bytes_view = {
  endpoint : string;
  bytes_in : int;
  bytes_out : int;
  reads : int;
  writes : int;
}

type snapshot = {
  latencies : hist_view list;
  endpoints : bytes_view list;
  counters : (string * int) list;
  gauges : (string * float) list;
}

(* Lock-free: one [Atomic.get] per registry yields an immutable map
   that cannot change under the fold. Cell values read during the fold
   are each individually atomic; the snapshot is a consistent map of
   per-cell instants, which is all the Hashtbl+lock version gave —
   observers never took the lock for the cells themselves. Smap folds
   ascending by key, so the views come out already sorted. *)
let snapshot t =
  let latencies =
    Smap.fold
      (fun name (h : hist) acc ->
        let total = Atomic.get h.total in
        let sum_s = Atomic.get h.sum_s in
        let buckets =
          List.init (Array.length h.counts) (fun i ->
              ( (if i < Array.length h.bounds then h.bounds.(i) else infinity),
                Atomic.get h.counts.(i) ))
        in
        {
          name;
          total;
          sum_s;
          max_s = Atomic.get h.max_s;
          mean_s = (if total = 0 then nan else sum_s /. float_of_int total);
          buckets;
        }
        :: acc)
      (Atomic.get t.hists) []
    |> List.rev
  in
  let endpoints =
    Smap.fold
      (fun endpoint (c : bytes_counter) acc ->
        {
          endpoint;
          bytes_in = Atomic.get c.bytes_in;
          bytes_out = Atomic.get c.bytes_out;
          reads = Atomic.get c.reads;
          writes = Atomic.get c.writes;
        }
        :: acc)
      (Atomic.get t.bytes) []
    |> List.rev
  in
  let counters =
    Smap.fold (fun k r acc -> (k, Atomic.get r) :: acc) (Atomic.get t.counters) []
    |> List.rev
  in
  let gauges =
    Smap.fold (fun k v acc -> (k, Atomic.get v) :: acc) (Atomic.get t.gauges) []
    |> List.rev
  in
  { latencies; endpoints; counters; gauges }

let hist_view_to_json (h : hist_view) =
  Jout.obj
    [
      ("name", Jout.str h.name);
      ("total", Jout.int h.total);
      ("sum_s", Jout.num h.sum_s);
      ("max_s", Jout.num h.max_s);
      ("mean_s", Jout.num h.mean_s);
      ( "buckets",
        Jout.arr
          (List.filter_map
             (fun (le, count) ->
               if count = 0 then None
               else
                 Some
                   (Jout.obj
                      [
                        ( "le_s",
                          if le = infinity then Jout.str "inf" else Jout.num le );
                        ("count", Jout.int count);
                      ]))
             h.buckets) );
    ]

let bytes_view_to_json (b : bytes_view) =
  Jout.obj
    [
      ("endpoint", Jout.str b.endpoint);
      ("bytes_in", Jout.int b.bytes_in);
      ("bytes_out", Jout.int b.bytes_out);
      ("reads", Jout.int b.reads);
      ("writes", Jout.int b.writes);
    ]

let snapshot_to_json (s : snapshot) =
  Jout.obj
    [
      ("latencies", Jout.arr (List.map hist_view_to_json s.latencies));
      ("endpoints", Jout.arr (List.map bytes_view_to_json s.endpoints));
      ( "counters",
        Jout.obj (List.map (fun (k, v) -> (k, Jout.int v)) s.counters) );
      ("gauges", Jout.obj (List.map (fun (k, v) -> (k, Jout.num v)) s.gauges));
    ]
