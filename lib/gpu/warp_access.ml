(* Per-warp memory-access classifier shared by both execution engines.

   A warp statement is executed lane by lane; every memory instruction in
   the statement occupies one *slot*, and each active lane appends its byte
   address (global) or word index (shared) to the slot it is currently at.
   When the whole warp has run the statement, [flush] prices each slot:
   global slots through the coalescing rule and the L2 model, shared slots
   through the bank-conflict rule.

   All buffers are reusable and grow on demand — there is no per-statement
   allocation, and no hard cap on the number of memory instructions per
   statement. Both the reference tree-walker and the compiled engine drive
   this module, so their statistics are identical by construction.

   Parallel simulation and the L2 sink. The only stateful coupling between
   blocks is the device-lifetime L2 table: coalescing, bank conflicts and
   instruction counts are per-warp-statement and embarrassingly parallel,
   but whether a transaction line hits depends on every line touched before
   it. Rather than lock a shared table (non-deterministic under OS
   scheduling), a worker domain runs with a [Log] sink: global slots are
   priced provisionally as all-miss and their deduped line ids appended to
   a per-chunk log. When the launch's chunks are merged — in serial block
   order — each log is replayed through the sliced L2 and the provisional
   bytes moved from DRAM to L2 for every hit. The replayed line stream is
   exactly the stream a serial run would have produced, so every counter,
   L2 included, is bit-identical to [jobs = 1]. *)

type kind = Global | Shared

(* flat group stream: [site; n; line_0 .. line_{n-1}; site'; n'; ...] *)
type l2_log = { mutable log_buf : int array; mutable log_len : int }

type sink = Direct | Log of l2_log

type t = {
  dev : Device.t;
  mem : Memory.t;
  stats : Stats.t;
  attr : Site_stats.t option;
  sink : sink;
  slices : int;
  cap_lines : int;
  tb : float;
  (* slot s holds addrs.(s).(0 .. lens.(s)-1) *)
  mutable kinds : kind array;
  mutable addrs : int array array;
  mutable lens : int array;
  mutable nslots : int;
  mutable lane_slot : int;
  (* site ids of the current statement's slots, installed by the engines
     before each flush group; slot s belongs to sites.(s). An empty array
     (or a short one) attributes to the overflow row, never traps. *)
  mutable sites : int array;
  (* reusable buffer for atomic contention accounting *)
  mutable atomic_idx : int array;
  mutable atomic_n : int;
}

let new_log () = { log_buf = Array.make 4096 0; log_len = 0 }

(* ----- replay-log reuse -----

   Logs can grow to megabytes on large launches (one int per deduped
   line). They used to be allocated per chunk and dropped after the
   merge, so every parallel launch re-grew them from 4 KB; the free list
   below keeps the grown buffers alive across launches instead. Chunks
   run on worker domains, so the list is mutex-protected — two ops per
   chunk, far off the hot path. *)

let log_pool : l2_log list ref = ref []
let log_pool_lock = Mutex.create ()

let acquire_log () =
  Mutex.lock log_pool_lock;
  let lg =
    match !log_pool with
    | lg :: rest ->
      log_pool := rest;
      lg
    | [] -> new_log ()
  in
  Mutex.unlock log_pool_lock;
  lg.log_len <- 0;
  lg

let release_log lg =
  Mutex.lock log_pool_lock;
  log_pool := lg :: !log_pool;
  Mutex.unlock log_pool_lock

let no_sites : int array = [||]

let create ?(sink = Direct) ?attr (dev : Device.t) mem stats =
  let cap = 8 in
  {
    dev;
    mem;
    stats;
    attr;
    sink;
    slices = dev.Device.l2_slices;
    cap_lines = dev.Device.l2_bytes / dev.Device.transaction_bytes;
    tb = float_of_int dev.Device.transaction_bytes;
    kinds = Array.make cap Global;
    addrs = Array.init cap (fun _ -> Array.make dev.Device.warp_size 0);
    lens = Array.make cap 0;
    nslots = 0;
    lane_slot = 0;
    sites = no_sites;
    atomic_idx = Array.make dev.Device.warp_size 0;
    atomic_n = 0;
  }

let grow_slots t =
  let cap = Array.length t.kinds in
  let cap' = 2 * cap in
  let kinds = Array.make cap' Global in
  let addrs =
    Array.init cap' (fun i ->
        if i < cap then t.addrs.(i)
        else Array.make t.dev.Device.warp_size 0)
  in
  let lens = Array.make cap' 0 in
  Array.blit t.kinds 0 kinds 0 cap;
  Array.blit t.lens 0 lens 0 cap;
  t.kinds <- kinds;
  t.addrs <- addrs;
  t.lens <- lens

let begin_lane t = t.lane_slot <- 0

let record t kind addr =
  let s = t.lane_slot in
  if s >= Array.length t.kinds then grow_slots t;
  if s = t.nslots then begin
    t.kinds.(s) <- kind;
    t.lens.(s) <- 0;
    t.nslots <- s + 1
  end;
  let buf = t.addrs.(s) in
  let n = t.lens.(s) in
  let buf =
    if n = Array.length buf then begin
      let b = Array.make (2 * n) 0 in
      Array.blit buf 0 b 0 n;
      t.addrs.(s) <- b;
      b
    end
    else buf
  in
  buf.(n) <- addr;
  t.lens.(s) <- n + 1;
  t.lane_slot <- s + 1

let record_global t addr = record t Global addr
let record_shared t word = record t Shared word

(* Install the per-slot site ids of the statement about to flush. Both
   engines arm this before every group that can hold memory slots, so a
   stale array can never survive into a later flush. *)
let set_sites t sites = t.sites <- sites

let site_of t s = if s < Array.length t.sites then t.sites.(s) else -1

(* --- node-major (vectorised) engine entry points ---

   The compiled engine's vector path knows each statement's memory slots at
   compile time: [set_slots] installs their kinds once per statement and
   [record_at] appends straight into a known slot, skipping the per-lane
   cursor. Every active lane appends exactly once per slot (memory operands
   sit in strictly-evaluated expression positions), so the slot buffers
   never exceed their warp-size capacity. *)

let set_slots t (kinds : kind array) n =
  while n > Array.length t.kinds do
    grow_slots t
  done;
  (* n is 1 or 2 for almost every statement: a manual loop beats the
     blit+fill call pair *)
  let tk = t.kinds and tl = t.lens in
  for i = 0 to n - 1 do
    Array.unsafe_set tk i (Array.unsafe_get kinds i);
    Array.unsafe_set tl i 0
  done;
  t.nslots <- n

let record_at t s addr =
  let buf = Array.unsafe_get t.addrs s in
  let n = Array.unsafe_get t.lens s in
  Array.unsafe_set buf n addr;
  Array.unsafe_set t.lens s (n + 1)

let log_group lg site (lines : int array) n =
  let need = lg.log_len + n + 2 in
  if need > Array.length lg.log_buf then begin
    let cap = ref (2 * Array.length lg.log_buf) in
    while need > !cap do
      cap := 2 * !cap
    done;
    let b = Array.make !cap 0 in
    Array.blit lg.log_buf 0 b 0 lg.log_len;
    lg.log_buf <- b
  end;
  lg.log_buf.(lg.log_len) <- site;
  lg.log_buf.(lg.log_len + 1) <- n;
  Array.blit lines 0 lg.log_buf (lg.log_len + 2) n;
  lg.log_len <- lg.log_len + n + 2

let flush t =
  let stats = t.stats in
  for s = 0 to t.nslots - 1 do
    let buf = Array.unsafe_get t.addrs s in
    let n = Array.unsafe_get t.lens s in
    (* a slot with no active lane contributes nothing (the lane-major path
       never materialises such a slot; the node-major path can) *)
    if n > 0 then begin
      let site = site_of t s in
      match t.kinds.(s) with
      | Global ->
        let nlines =
          Memory.dedup_lines
            ~transaction_bytes:t.dev.Device.transaction_bytes buf n
        in
        let trans = float_of_int nlines in
        stats.Stats.mem_insts <- stats.Stats.mem_insts +. 1.;
        stats.Stats.transactions <- stats.Stats.transactions +. trans;
        (match t.sink with
         | Direct ->
           let hits =
             float_of_int
               (Memory.cache_access_lines t.mem ~cap_lines:t.cap_lines
                  ~slices:t.slices buf nlines)
           in
           stats.Stats.bytes <- stats.Stats.bytes +. ((trans -. hits) *. t.tb);
           stats.Stats.l2_bytes <- stats.Stats.l2_bytes +. (hits *. t.tb);
           (match t.attr with
            | None -> ()
            | Some a ->
              Site_stats.bump a site Site_stats.col_mem_insts 1.;
              Site_stats.bump a site Site_stats.col_transactions trans;
              Site_stats.bump a site Site_stats.col_bytes
                ((trans -. hits) *. t.tb);
              Site_stats.bump a site Site_stats.col_l2_bytes (hits *. t.tb))
         | Log lg ->
           (* provisionally all-miss; the replay moves hit bytes to L2,
              per site, so the log carries the slot's site id *)
           log_group lg site buf nlines;
           stats.Stats.bytes <- stats.Stats.bytes +. (trans *. t.tb);
           (match t.attr with
            | None -> ()
            | Some a ->
              Site_stats.bump a site Site_stats.col_mem_insts 1.;
              Site_stats.bump a site Site_stats.col_transactions trans;
              Site_stats.bump a site Site_stats.col_bytes (trans *. t.tb)))
      | Shared ->
        let factor =
          Memory.bank_conflict_factor ~banks:t.dev.Device.smem_banks buf n
        in
        stats.Stats.smem_insts <- stats.Stats.smem_insts +. 1.;
        stats.Stats.smem_conflict_extra <-
          stats.Stats.smem_conflict_extra +. float_of_int (factor - 1);
        (match t.attr with
         | None -> ()
         | Some a ->
           Site_stats.bump a site Site_stats.col_smem_insts 1.;
           Site_stats.bump a site Site_stats.col_smem_conflict_extra
             (float_of_int (factor - 1)))
    end;
    t.lens.(s) <- 0
  done;
  t.nslots <- 0

(* Returns the number of L2 lines replayed, for the pool metrics. *)
let replay_log ?attr (dev : Device.t) mem stats lg =
  let cap_lines = dev.Device.l2_bytes / dev.Device.transaction_bytes in
  let tb = float_of_int dev.Device.transaction_bytes in
  let slices = dev.Device.l2_slices in
  let scratch = ref (Array.make dev.Device.warp_size 0) in
  let buf = lg.log_buf in
  let i = ref 0 in
  let lines = ref 0 in
  while !i < lg.log_len do
    let site = buf.(!i) in
    let n = buf.(!i + 1) in
    if n > Array.length !scratch then scratch := Array.make n 0;
    Array.blit buf (!i + 2) !scratch 0 n;
    let hits =
      float_of_int
        (Memory.cache_access_lines mem ~cap_lines ~slices !scratch n)
    in
    stats.Stats.bytes <- stats.Stats.bytes -. (hits *. tb);
    stats.Stats.l2_bytes <- stats.Stats.l2_bytes +. (hits *. tb);
    (match attr with
     | None -> ()
     | Some a ->
       Site_stats.bump a site Site_stats.col_bytes (-.(hits *. tb));
       Site_stats.bump a site Site_stats.col_l2_bytes (hits *. tb));
    lines := !lines + n;
    i := !i + n + 2
  done;
  !lines

(* --- divergence --- *)

(* Both engines detect divergent branches themselves; funnelling the bump
   through here keeps the aggregate counter and the per-site row in one
   place (and therefore equal by construction). *)
let divergent t site =
  t.stats.Stats.divergent_branches <- t.stats.Stats.divergent_branches +. 1.;
  match t.attr with
  | None -> ()
  | Some a -> Site_stats.bump a site Site_stats.col_divergent_branches 1.

(* Attribution-only half of [divergent], for the compiled engine: its
   hottest loop closures keep the aggregate bump inline and only pay this
   call on attributed runs (guarded by a per-context flag). *)
let attr_divergent t site =
  match t.attr with
  | None -> ()
  | Some a -> Site_stats.bump a site Site_stats.col_divergent_branches 1.

(* --- atomic contention --- *)

let atomic_begin t = t.atomic_n <- 0

let atomic_record t idx =
  let n = t.atomic_n in
  if n = Array.length t.atomic_idx then begin
    let b = Array.make (2 * n) 0 in
    Array.blit t.atomic_idx 0 b 0 n;
    t.atomic_idx <- b
  end;
  t.atomic_idx.(n) <- idx;
  t.atomic_n <- n + 1

let atomic_commit t site (entry : Memory.entry) =
  let distinct, worst = Memory.distinct_and_worst t.atomic_idx t.atomic_n in
  if distinct > 0 then begin
    let stats = t.stats in
    stats.Stats.atomics <- stats.Stats.atomics +. 1.;
    stats.Stats.transactions <-
      stats.Stats.transactions +. float_of_int distinct;
    (* atomics resolve in the L2 *)
    stats.Stats.l2_bytes <-
      stats.Stats.l2_bytes
      +. float_of_int (distinct * 2 * entry.Memory.elem_bytes);
    stats.Stats.atomic_serial_extra <-
      stats.Stats.atomic_serial_extra +. float_of_int (max 0 (worst - 1));
    match t.attr with
    | None -> ()
    | Some a ->
      Site_stats.bump a site Site_stats.col_atomics 1.;
      Site_stats.bump a site Site_stats.col_transactions
        (float_of_int distinct);
      Site_stats.bump a site Site_stats.col_l2_bytes
        (float_of_int (distinct * 2 * entry.Memory.elem_bytes));
      Site_stats.bump a site Site_stats.col_atomic_serial_extra
        (float_of_int (max 0 (worst - 1)))
  end
