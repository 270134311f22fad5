(* Process-wide metrics registry, split into per-domain shards.

   Counters and histograms live in fixed-size per-shard float arrays; the
   hot path is a single array store with no allocation and no locking.
   Each domain is lazily assigned a shard slot on first use (an atomic
   ticket, kept in domain-local storage), so concurrent workers never
   contend on a cache line: every shard owns a 64-byte-aligned stripe of
   each instrument. Reads ([value], [snapshot]) sum over the shards; they
   are approximate while writers are running and exact once the writers
   have quiesced — which is when anyone actually reads them (end of a
   search, end of a launch, end of the bench suite).

   Instruments are identified by name plus an optional label set, and are
   meant to be created once, outside hot loops, and held by the caller:
   [counter]/[histogram] take a registry lock, [add]/[observe] never do. *)

let max_shards = 128

(* one float per shard would false-share: pad each shard's cell out to a
   cache line (8 doubles) *)
let stride = 8

let shard_ticket = Atomic.make 0

let shard_key =
  Domain.DLS.new_key (fun () ->
      (Atomic.fetch_and_add shard_ticket 1) mod max_shards)

let shard () = Domain.DLS.get shard_key

(* ----- counters ----- *)

type counter = {
  c_name : string;
  c_labels : (string * string) list;
  cells : float array;
}

(* ----- histograms ----- *)

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  bounds : float array;  (* upper bounds of all but the overflow bucket *)
  (* per shard: nbuckets counts, then sum, then count *)
  hcells : float array;
  hwidth : int;  (* per-shard stripe, padded to a cache-line multiple *)
}

let default_bounds = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]

(* ----- registry ----- *)

type instrument = C of counter | H of histogram

let registry : (string * (string * string) list, instrument) Hashtbl.t =
  Hashtbl.create 64

let registry_lock = Mutex.create ()

let norm_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let counter ?(labels = []) name =
  let labels = norm_labels labels in
  with_registry (fun () ->
      match Hashtbl.find_opt registry (name, labels) with
      | Some (C c) -> c
      | Some (H _) ->
        invalid_arg
          (Printf.sprintf "Metrics.counter: %S is already a histogram" name)
      | None ->
        let c =
          {
            c_name = name;
            c_labels = labels;
            cells = Array.make (max_shards * stride) 0.;
          }
        in
        Hashtbl.replace registry (name, labels) (C c);
        c)

let add c x = c.cells.(shard () * stride) <- c.cells.(shard () * stride) +. x
let incr c = add c 1.
let value c = Array.fold_left ( +. ) 0. c.cells

let histogram ?(labels = []) ?(bounds = default_bounds) name =
  let labels = norm_labels labels in
  with_registry (fun () ->
      match Hashtbl.find_opt registry (name, labels) with
      | Some (H h) -> h
      | Some (C _) ->
        invalid_arg
          (Printf.sprintf "Metrics.histogram: %S is already a counter" name)
      | None ->
        let nbuckets = Array.length bounds + 1 in
        (* counts + sum + count, rounded up to whole cache lines *)
        let hwidth = (nbuckets + 2 + stride - 1) / stride * stride in
        let h =
          {
            h_name = name;
            h_labels = labels;
            bounds;
            hcells = Array.make (max_shards * hwidth) 0.;
            hwidth;
          }
        in
        Hashtbl.replace registry (name, labels) (H h);
        h)

(* per-shard layout: bucket counts at [0 .. nb], sum at [nb + 1], count at
   [nb + 2] *)
let observe h x =
  let base = shard () * h.hwidth in
  let nb = Array.length h.bounds in
  let rec bucket i = if i >= nb || x <= h.bounds.(i) then i else bucket (i + 1) in
  let b = bucket 0 in
  h.hcells.(base + b) <- h.hcells.(base + b) +. 1.;
  h.hcells.(base + nb + 1) <- h.hcells.(base + nb + 1) +. x;
  h.hcells.(base + nb + 2) <- h.hcells.(base + nb + 2) +. 1.

(* ----- spans (wall-clock phases, for the Chrome trace) ----- *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_domain : int;
  sp_start : float;
  sp_stop : float;
}

let span_recording = Atomic.make false
let spans_lock = Mutex.create ()
let recorded_spans : span list ref = ref []

let set_span_recording b = Atomic.set span_recording b

let span ?(cat = "phase") name f =
  if not (Atomic.get span_recording) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let s =
        {
          sp_name = name;
          sp_cat = cat;
          sp_domain = (Domain.self () :> int);
          sp_start = t0;
          sp_stop = t1;
        }
      in
      Mutex.lock spans_lock;
      recorded_spans := s :: !recorded_spans;
      Mutex.unlock spans_lock
    in
    Fun.protect ~finally:finish f
  end

let spans () =
  Mutex.lock spans_lock;
  let s = !recorded_spans in
  Mutex.unlock spans_lock;
  List.rev s

(* ----- snapshots ----- *)

type hist_view = {
  hv_bounds : float array;
  hv_counts : float array;  (* one per bound, plus the overflow bucket *)
  hv_sum : float;
  hv_count : float;
}

type value_view = Counter of float | Histogram of hist_view

type entry = {
  name : string;
  labels : (string * string) list;
  v : value_view;
}

let hist_view h =
  let nb = Array.length h.bounds in
  let counts = Array.make (nb + 1) 0. in
  let sum = ref 0. and count = ref 0. in
  for s = 0 to max_shards - 1 do
    let base = s * h.hwidth in
    for b = 0 to nb do
      counts.(b) <- counts.(b) +. h.hcells.(base + b)
    done;
    sum := !sum +. h.hcells.(base + nb + 1);
    count := !count +. h.hcells.(base + nb + 2)
  done;
  { hv_bounds = h.bounds; hv_counts = counts; hv_sum = !sum; hv_count = !count }

let snapshot () =
  let entries =
    with_registry (fun () ->
        Hashtbl.fold
          (fun _ inst acc ->
            (match inst with
             | C c ->
               { name = c.c_name; labels = c.c_labels; v = Counter (value c) }
             | H h ->
               { name = h.h_name; labels = h.h_labels; v = Histogram (hist_view h) })
            :: acc)
          registry [])
  in
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    entries

(* snapshot-and-delta: what one request contributed to the registry.
   Entries are matched by (name, labels); an instrument absent from
   [before] (registered mid-request) counts from zero. All-zero deltas
   are dropped so a request's profile JSON only carries what it touched. *)
let diff before after =
  let key e = (e.name, e.labels) in
  let tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace tbl (key e) e.v) before;
  List.filter_map
    (fun e ->
      let v =
        match (Hashtbl.find_opt tbl (key e), e.v) with
        | None, v -> Some v
        | Some (Counter b), Counter a ->
          let d = a -. b in
          if d = 0. then None else Some (Counter d)
        | Some (Histogram b), Histogram a ->
          let counts = Array.mapi (fun i c -> c -. b.hv_counts.(i)) a.hv_counts in
          let d =
            {
              hv_bounds = a.hv_bounds;
              hv_counts = counts;
              hv_sum = a.hv_sum -. b.hv_sum;
              hv_count = a.hv_count -. b.hv_count;
            }
          in
          if d.hv_count = 0. && d.hv_sum = 0. then None else Some (Histogram d)
        | Some (Counter _), (Histogram _ as v)
        | Some (Histogram _), (Counter _ as v) ->
          (* an instrument cannot change kind; keep the new view *)
          Some v
      in
      Option.map (fun v -> { e with v }) v)
    after

let reset () =
  with_registry (fun () ->
      Hashtbl.iter
        (fun _ inst ->
          match inst with
          | C c -> Array.fill c.cells 0 (Array.length c.cells) 0.
          | H h -> Array.fill h.hcells 0 (Array.length h.hcells) 0.)
        registry);
  Mutex.lock spans_lock;
  recorded_spans := [];
  Mutex.unlock spans_lock
