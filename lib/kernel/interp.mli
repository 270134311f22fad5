(** Warp-accurate SIMT interpreter for the kernel IR.

    Execution model (paper Section II): a launch runs [grid] thread blocks;
    each block's threads are linearised (x fastest) and grouped into 32-wide
    warps, exactly as CUDA maps multidimensional blocks onto warps
    (Figure 4b). A warp executes statements in lockstep under an active-lane
    mask; divergent branches run both sides serially with complementary
    masks; [__syncthreads] suspends a warp until every warp of the block
    reaches the barrier (implemented with OCaml effects).

    While executing, the interpreter collects the statistics that drive the
    timing model:
    - every warp instruction issued (both sides of divergent branches);
    - per warp memory instruction, the number of aligned
      [transaction_bytes] segments covering the active lanes' addresses
      (the coalescing rule);
    - shared-memory bank conflicts (extra serialised accesses);
    - atomic contention and device-malloc events.

    Functional results are exact: the harness compares every output buffer
    against the CPU reference interpreter. *)

exception Trap of string
(** Raised on out-of-bounds accesses, type confusion, use of undefined
    registers, divergent barriers, or runaway loops — all indicate code
    generation bugs and fail tests loudly. An alias of
    {!Simt_error.Trap}, which both engines raise. *)

type engine =
  | Reference  (** the tree-walking interpreter in this module *)
  | Compiled
    (** the closure-compiling engine in {!Compile}; falls back to
        [Reference] per launch when compilation is rejected *)

val engine_of_string : name:string -> string -> (engine, string) result
(** Parse an engine name: ["compiled"] (or ["closure"]) and ["reference"]
    (or ["ref"] / ["interp"]). The error names [name] — the flag, field
    or variable the value came from — and the accepted values. *)

val engine_name : engine -> string
(** The canonical name, ["compiled"] or ["reference"]. *)

val default_engine : unit -> engine
(** [Compiled], unless the [PPAT_ENGINE] environment variable is set to
    ["reference"] (or ["ref"] / ["interp"]); ["compiled"] / ["closure"]
    select the default explicitly. Any other value fails fast (via
    {!Ppat_gpu.Tuning.env}) instead of being silently ignored. *)

val fallbacks : int ref
(** Number of launches the [Compiled] engine handed to the reference
    engine since program start (cumulative; tests reset it). *)

val last_fallback : string option ref
(** Reason of the most recent fallback. *)

val default_jobs : unit -> int
(** Worker-domain count for intra-launch parallel simulation: the
    [PPAT_SIM_JOBS] environment variable (clamped to
    [1 .. Ppat_parallel.max_jobs]), defaulting to 1 (serial). A value
    that is not a positive integer fails fast instead of silently
    running serially. *)

val parallel_fallbacks : int ref
(** Number of launches that requested [jobs > 1] but ran serially because
    the kernel uses global atomics (cumulative; tests reset it). *)

val last_parallel_fallback : string option ref
(** Reason of the most recent serial fallback of a parallel run. *)

val effective_jobs : jobs:int -> Kir.launch -> int
(** The worker count a launch actually runs with: [jobs], demoted to 1
    (with fallback accounting) when the kernel uses global atomics. Both
    {!run} and the staged-replay path ({!Staged}) route through this so
    the gating policy and its counters live in one place. *)

val validate : Ppat_gpu.Device.t -> Kir.launch -> unit
(** The launch checks applied before any simulation: raises {!Trap} on an
    empty grid or block ("empty launch") and on a block larger than the
    device's thread limit. {!run} (either engine) and
    {!Staged.stage_launch} both apply it, so a bad launch traps with the
    same message on every path. *)

val run :
  ?engine:engine ->
  ?jobs:int ->
  ?attr:Ppat_gpu.Site_stats.t ->
  Ppat_gpu.Device.t ->
  Ppat_gpu.Memory.t ->
  Kir.launch ->
  Ppat_gpu.Stats.t
(** Execute a launch against device memory, mutating buffers in place, and
    return the collected statistics. [engine] defaults to
    {!default_engine}[ ()]; both engines produce bit-identical statistics
    and buffer contents.

    [attr], when given, must be sized by {!Site.count} for the launch's
    kernel; every attributable counter update is then also accumulated
    per access site. Attribution is engine- and jobs-invariant: the
    matrix is bit-identical across both engines and any [jobs], and its
    column totals equal the aggregate counters exactly
    ({!Ppat_gpu.Site_stats.totals}).

    [jobs] (default {!default_jobs}[ ()]) sets the number of worker
    domains the launch's blocks are partitioned across. Every statistic —
    the L2 hit split included — is bit-identical to [jobs = 1]: workers
    log their transaction lines instead of racing on the shared L2 table,
    and the logs are replayed through the address-sliced L2 in serial
    block order at merge time ({!Ppat_gpu.Warp_access.replay_log}).
    Launches whose kernels use global atomics run serially regardless
    ({!parallel_fallbacks}). Buffer mutations race only if distinct blocks
    write the same element, which the codegen never emits. *)

val max_loop_iters : int
(** Safety cap on per-thread loop trip counts (defends tests against
    non-terminating generated code). *)
