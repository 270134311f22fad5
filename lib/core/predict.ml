module Device = Ppat_gpu.Device
module Stats = Ppat_gpu.Stats
module Timing = Ppat_gpu.Timing
module Access = Ppat_ir.Access
module Levels = Ppat_ir.Levels

type access_est = {
  ae_buf : string;
  ae_store : bool;
  ae_tx_per_warp : float;
  ae_transactions : float;
}

type t = {
  geometry : Timing.geometry;
  stats : Stats.t;
  utilization : float;
  breakdown : Timing.breakdown;
  cycles : float;
  seconds : float;
  per_access : access_est list;
}

(* element sizes are not visible in the access analysis; assume doubles.
   The bias is uniform across candidates, so rankings are unaffected. *)
let elem_bytes = 8.

let cdiv a b = (a + b - 1) / b

let geometry_of ~sizes (m : Mapping.t) =
  {
    Timing.grid =
      ( Mapping.grid_extent ~sizes m Mapping.X,
        Mapping.grid_extent ~sizes m Mapping.Y,
        Mapping.grid_extent ~sizes m Mapping.Z );
    block =
      ( Mapping.block_extent m Mapping.X,
        Mapping.block_extent m Mapping.Y,
        Mapping.block_extent m Mapping.Z );
  }

(* lane extents of one warp along each block axis: linear tids fill x
   fastest, so a warp covers min(bx, 32) along x, then folds into y and
   z. Block sizes are powers of two, so the divisions are exact. *)
let warp_extents (dev : Device.t) (m : Mapping.t) =
  let bx = Mapping.block_extent m Mapping.X
  and by = Mapping.block_extent m Mapping.Y
  and bz = Mapping.block_extent m Mapping.Z in
  let ex = max 1 (min bx dev.warp_size) in
  let ey = max 1 (min by (max 1 (dev.warp_size / ex))) in
  let ez = max 1 (min bz (max 1 (dev.warp_size / (ex * ey)))) in
  (ex, ey, ez)

(* the access's element stride along the level assigned to a block axis,
   resolved pid -> level exactly as [Collect] does for Coalesce *)
let stride_at (c : Collect.t) (a : Access.access) level =
  let found = ref None in
  List.iter
    (fun (pid, s) ->
      if !found = None && Levels.level_of c.levels pid = level then
        found := Some s)
    a.Access.strides;
  !found

let transactions_per_warp (dev : Device.t) (c : Collect.t) (m : Mapping.t)
    (a : Access.access) =
  let ex, ey, ez = warp_extents dev m in
  let tbytes = float_of_int dev.transaction_bytes in
  let axis dim extent =
    if extent <= 1 then 1.
    else
      match Mapping.level_of_dim m dim with
      | None -> 1.
      | Some l -> (
        match stride_at c a l with
        | None | Some (Access.Known 0) -> 1. (* invariant: broadcast *)
        | Some (Access.Known k) ->
          (* [extent] lanes step the address by [k] elements each: the
             contiguous footprint folds into ceil(extent*k*B/T)
             segments, degenerating to one per lane once strides exceed
             a transaction *)
          let segs =
            Float.ceil
              (float_of_int extent *. float_of_int (abs k) *. elem_bytes
              /. tbytes)
          in
          Float.max 1. (Float.min (float_of_int extent) segs)
        | Some Access.Unknown -> float_of_int extent)
  in
  Float.min
    (float_of_int dev.warp_size)
    (axis Mapping.X ex *. axis Mapping.Y ey *. axis Mapping.Z ez)

(* thread-slots the mapping launches per level (grid x block x sequential
   iterations); padding beyond the level size is wasted lanes *)
let level_slots ~size (d : Mapping.decision) =
  let size = max 1 size in
  match d.span with
  | Mapping.Span n ->
    let n = max 1 n in
    cdiv size (d.bsize * n) * d.bsize * n
  | Mapping.Span_all -> cdiv size d.bsize * d.bsize
  | Mapping.Split k ->
    let k = max 1 k in
    cdiv size (d.bsize * k) * d.bsize * k

let utilization_of ~sizes (m : Mapping.t) =
  let u = ref 1. in
  Array.iteri
    (fun l (d : Mapping.decision) ->
      let size = max 1 sizes.(l) in
      u := !u *. (float_of_int size /. float_of_int (level_slots ~size d)))
    m;
  Float.max 1e-9 !u

(* instruction-cost constants: scalar operations a work item spends per
   global access (address arithmetic + the memory operation), per
   local-array access, and on pattern bookkeeping per index. Only their
   ratio to the memory terms matters; they are not per-app tuned. *)
let insts_per_global = 4.
let insts_per_local = 2.
let insts_per_index = 4.

let predict ?(shuffle = false) (dev : Device.t)
    (c : Collect.t) (m : Mapping.t) =
  let sizes = c.level_sizes in
  let geometry = geometry_of ~sizes m in
  let gx, gy, gz = geometry.Timing.grid
  and bx, by, bz = geometry.Timing.block in
  let blocks = gx * gy * gz in
  let tpb = max 1 (bx * by * bz) in
  let util = utilization_of ~sizes m in
  let warp = float_of_int dev.warp_size in
  let total_work =
    Array.fold_left (fun acc s -> acc *. float_of_int (max 1 s)) 1. sizes
  in
  let stats = Stats.create () in
  let scalar_ops = ref (insts_per_index *. total_work) in
  let per_access = ref [] in
  List.iter
    (fun (a : Access.access) ->
      if a.Access.alocal then
        scalar_ops := !scalar_ops +. (insts_per_local *. a.Access.weight)
      else begin
        scalar_ops := !scalar_ops +. (insts_per_global *. a.Access.weight);
        (* weight/warp full-warp executions of the access, inflated by
           lane padding; each generates tx_per_warp transactions *)
        let winsts = a.Access.weight /. warp /. util in
        let txw = transactions_per_warp dev c m a in
        let tx = txw *. (a.Access.weight /. warp) in
        stats.Stats.mem_insts <- stats.Stats.mem_insts +. winsts;
        stats.Stats.transactions <- stats.Stats.transactions +. tx;
        stats.Stats.bytes <-
          stats.Stats.bytes +. (tx *. float_of_int dev.transaction_bytes);
        per_access :=
          {
            ae_buf = a.Access.abuf;
            ae_store = a.Access.is_store;
            ae_tx_per_warp = txw;
            ae_transactions = tx;
          }
          :: !per_access
      end)
    c.accesses;
  stats.Stats.warp_insts <- !scalar_ops /. warp /. util;
  (* tree reductions: every Span(all)/Split level with a global-sync
     requirement combines within the block — log2(bsize) barrier rounds
     per block, with a round of shared-memory traffic each *)
  let log2i n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
    go 0 n
  in
  Array.iteri
    (fun l (d : Mapping.decision) ->
      match c.span_all_required.(l) with
      | Some (Constr.Global_sync _)
        when d.bsize > 1
             && (match d.span with
                 | Mapping.Span_all | Mapping.Split _ -> true
                 | Mapping.Span _ -> false) ->
        let rounds = float_of_int (log2i d.bsize) in
        let fblocks = float_of_int (max 1 blocks) in
        let warps_per_block =
          float_of_int (cdiv tpb dev.warp_size)
        in
        if shuffle && d.dim = Mapping.X && d.bsize <= dev.warp_size then
          (* shuffle synthesis replaces the level's shared-memory tree:
             no barriers, no shared-memory round-trips — just one shuffle
             per round plus the leader broadcast, priced as plain warp
             instructions below *)
          stats.Stats.shuffles <-
            stats.Stats.shuffles
            +. (fblocks *. warps_per_block *. (rounds +. 1.))
        else begin
          stats.Stats.syncs <- stats.Stats.syncs +. (fblocks *. rounds);
          stats.Stats.smem_insts <-
            stats.Stats.smem_insts +. (fblocks *. warps_per_block *. rounds)
        end
      | _ -> ())
    m;
  stats.Stats.warp_insts <-
    stats.Stats.warp_insts +. stats.Stats.smem_insts +. stats.Stats.shuffles;
  let breakdown = Timing.kernel_estimate dev geometry stats in
  {
    geometry;
    stats;
    utilization = util;
    breakdown;
    cycles = breakdown.Timing.seconds *. dev.clock_ghz *. 1e9;
    seconds = breakdown.Timing.seconds;
    per_access = List.rev !per_access;
  }
