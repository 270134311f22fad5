(** Code generation: lower a mapped pattern nest to kernel IR (paper
    Section IV-E).

    Each top-level pattern becomes one kernel, except when the mapping
    requires auxiliary launches: a Split(k) level adds a combiner kernel
    that folds the per-section partial results; Filter prepends a
    counter-reset kernel; Group_by expands to histogram / offsets-scan /
    scatter kernels. The generator picks a template per pattern and mapping
    decision: a parallelised Reduce level emits the shared-memory tree
    reduction of Figure 9, a serial level (block size 1 + Span(all)) emits a
    plain accumulation loop, and so on.

    Guards are compiled to {e predication}: every level index is clamped
    into range and a validity flag guards stores, atomics and reduction
    contributions. This keeps [__syncthreads] in uniform control flow for
    any domain size (hand-written kernels usually assume divisibility
    instead).

    The dynamic-allocation optimisation of Section V-A is part of lowering:
    a nested Map that would allocate per-thread memory is materialised into
    one pre-allocated device buffer covering the whole outer domain, whose
    physical layout either follows the natural (outer-major) order
    ([Prealloc]) or is permuted so the dimension-x level is innermost
    ([Prealloc_opt], Figure 11); [Malloc] keeps the natural layout and
    charges a device-malloc event per outer element, modelling the naive
    code. *)

(** How nested-Map temporary storage is obtained (Section V-A, Figure 16). *)
type alloc_mode =
  | Malloc  (** per-thread dynamic allocation (the unoptimised baseline) *)
  | Prealloc  (** single upfront allocation, outer-major layout *)
  | Prealloc_opt  (** single upfront allocation, mapping-aware layout *)

type options = {
  alloc_mode : alloc_mode;
  smem_prefetch : bool;
      (** cooperative shared-memory prefetch of outer-level reads in
          imperfect nests (Section V-B) *)
  ordered_filter : bool;
      (** compile Filter as flags + exclusive scan + scatter (order-
          preserving, 3+ kernels) instead of the default atomic append
          (unordered, 2 kernels) *)
  warp_sync : bool;
      (** drop [__syncthreads] from tree-reduction rounds whose partners
          live in the same warp — the "warp synchronous programming
          technique" the paper's Figure 9 refers to. Only applies to
          reductions on dimension x. *)
  shuffle : bool;
      (** synthesise warp-shuffle tree reductions (Kepler [__shfl_*]) in
          place of the shared-memory template when the reduced level maps
          to dimension x and its block size fits one warp: the partner
          value travels through the register file, so the level costs no
          shared-memory slots, no bank conflicts and no barriers. Combine
          order matches the smem template bit for bit. *)
}

val default_options : options
(** [Prealloc_opt] with prefetching enabled — what "MultiDim" means in the
    experiments. *)

val effective_options : unit -> options
(** [default_options] specialised by the process-wide tuning knobs
    ({!Ppat_gpu.Tuning}): currently just [shuffle], defaulting from
    [PPAT_SHUFFLE] / the CLI's [--shuffle]. Read at call time so a flag
    flipped before staging takes effect. *)

(** A device scratch buffer the harness must allocate (zero-filled) before
    running the launches. *)
type temp = { tname : string; telem : Ppat_ir.Ty.scalar; telems : int }

type lowered = {
  launches : Ppat_kernel.Kir.launch list;  (** to run in order *)
  temps : temp list;
  notes : string list;  (** fallbacks taken (e.g. a demoted Split) *)
}

exception Unsupported of string
(** Raised for pattern/mapping combinations outside the supported templates
    (e.g. a nested Filter); the experiment harness treats this as a
    configuration error. *)

val lower :
  Ppat_gpu.Device.t ->
  ?opts:options ->
  params:(string * int) list ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Pat.nested ->
  Ppat_core.Mapping.t ->
  lowered
(** Lower one Launch step under the given mapping. Called at launch time
    (all parameters known), which is where the paper's "dynamic decision"
    adjusts geometry to the actual sizes. *)

val shape_key : lowered -> string
(** Digest of the lowering's {e mapping shape}: per-launch
    {!Ppat_kernel.Kir.shape_fingerprint}s plus temp names and element
    types (sizes dropped). Candidates sharing this key differ only in
    geometry / block / DOP parameters; the sweep reports it per
    candidate. *)
