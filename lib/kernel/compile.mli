(** Closure-compiling execution engine for the kernel IR.

    [compile] stages a launch once into OCaml closures over unboxed
    per-warp lane state: register types are inferred statically and split
    into [int array] / [float array] register files, buffer names resolve
    to their {!Ppat_gpu.Memory.entry} at compile time, launch geometry and
    kernel parameters fold to constants, per-statement instruction counts
    are precomputed, and every statement is staged node-major (one
    closure per expression node, looping over the warp's active lanes).
    [execute] then runs the closures over the whole grid.

    The engine is faithful by construction or not at all: statistics and
    output buffers are bit-identical with [Interp]'s reference
    tree-walker (both price memory through {!Ppat_gpu.Warp_access}), and
    any kernel whose semantics the static analysis cannot prove —
    mixed-type arithmetic, a possibly-undefined register read, an unbound
    name, a warp-primitive operand that reads memory — is rejected with
    [Error], letting the driver run the launch on the reference engine,
    which reproduces the exact dynamic trap. *)

type t
(** A launch compiled against a specific device and memory image. The
    value captures the memory's live buffers; it must be executed against
    the same [Memory.t] it was compiled with, before any buffer is
    reinstalled. *)

val compile :
  Ppat_gpu.Device.t -> Ppat_gpu.Memory.t -> Kir.launch -> (t, string) result
(** Stage the launch, or explain why it must run on the reference
    engine. *)

val execute :
  ?jobs:int ->
  ?attr:Ppat_gpu.Site_stats.t ->
  Ppat_gpu.Device.t ->
  t ->
  Ppat_gpu.Stats.t
(** Run a compiled launch over the full grid, mutating device buffers in
    place, and return the collected statistics. Traps with
    {!Simt_error.Trap} exactly where the reference engine would.

    [attr], when given, must be sized by {!Site.count} for the compiled
    kernel; attributable counters are then also accumulated per access
    site, bit-identically to the reference engine (see {!Interp.run}).

    [jobs] (default 1) partitions the grid's blocks across that many
    worker domains; statistics are bit-identical to the serial run (the
    L2 settles by deterministic log replay — see {!Interp.run}). Callers
    are expected to gate kernels with global atomics to [jobs = 1]
    themselves ({!Interp.run} does); this function does not inspect the
    kernel body. *)

val max_loop_iters : int
(** Same runaway-loop cap as the reference engine. *)
