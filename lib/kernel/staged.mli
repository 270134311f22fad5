(** Staged execution plans: everything a program run does {e except} the
    search and the staging itself, packaged for replay.

    A plan is built by executing a program once (the harness walks the
    host steps, lowers each launch, and compiles it here) and remembers,
    per host step, the compiled closure trees, the temp allocations to
    re-zero, and the host control flow (swaps, flag loops). Replaying the
    plan against fresh input data pays only simulation cost: no mapping
    search, no lowering, no closure compilation.

    Replay is bit-identical to a cold run of the same program because
    everything a cold run's statistics depend on is restored first:
    buffer base addresses are reused (the staging memory is kept alive
    inside the plan — compiled closures capture its entries), buffer
    contents are refilled in place, temps re-zeroed, name bindings
    rebound, and the device-lifetime L2 reset to cold
    ({!Ppat_gpu.Memory.reset_cache}).

    Plans cannot represent programs whose flag-loop bodies allocate
    temps or swap buffers (a cold run would re-allocate per iteration at
    fresh addresses, which replay cannot reproduce); staging such a
    program must be rejected by the builder. *)

type exec =
  | Closure of Compile.t  (** compiled against the plan's memory *)
  | Fallback of string
      (** compilation was rejected for this reason; replay runs the
          launch on the reference engine *)

type 'm slaunch = {
  launch : Kir.launch;
  exec : exec;
  serial_only : bool;
      (** kernel uses global atomics: always simulate with one worker *)
  meta : 'm;  (** caller-owned per-launch payload (labels, mappings) *)
}

type 'm op =
  | Exec of {
      binds : (string * Ppat_gpu.Memory.entry) list;
          (** temp allocations of this step: rebound and re-zeroed on
              replay, in allocation order *)
      launches : 'm slaunch list;
      notes : string list;
    }
  | Swap of string * string
  | While of { flag : string; max_iter : int; body : 'm op list }
      (** clear [flag].[0], run [body], repeat while it is non-zero *)

type 'm plan = {
  device : Ppat_gpu.Device.t;
  mem : Ppat_gpu.Memory.t;
      (** the staging memory; every closure in the plan is bound to it *)
  initial : (string * Ppat_gpu.Memory.entry) list;
      (** program-buffer bindings as of load time, before any step ran *)
  ops : 'm op list;
  lock : Mutex.t;
      (** replays mutate [mem]; concurrent replays of one plan serialise
          here *)
}

(** {2 Staging helpers} *)

type kcache
(** Within-staging compile cache: closure trees keyed by (kernel digest,
    geometry, launch params, memory epoch), so a flag loop or a repeated
    identical launch stages its kernel once. Hits/misses surface in
    {!Ppat_metrics.Metrics} under cache label ["kernel_stage"]. *)

val kcache : ?capacity:int -> unit -> kcache

val launch_digest : Kir.launch -> string
(** Structural digest of kernel + geometry + launch params. *)

val stage_launch :
  ?cache:kcache ->
  Ppat_gpu.Device.t ->
  Ppat_gpu.Memory.t ->
  Kir.launch ->
  meta:'m ->
  'm slaunch
(** Validate one launch ({!Interp.validate}: traps on an empty or
    oversized launch) and compile it against the staging memory (through
    [cache] when given). Compile rejections become [Fallback] with the
    engine's fallback accounting, mirroring what {!Interp.run} would do. *)

val reference_slaunch : Kir.launch -> meta:'m -> 'm slaunch
(** A plan entry that always replays on the reference engine — used when
    the request asked for the reference engine in the first place. *)

(** {2 Replay} *)

val run_slaunch :
  ?jobs:int ->
  ?attr:Ppat_gpu.Site_stats.t ->
  Ppat_gpu.Device.t ->
  Ppat_gpu.Memory.t ->
  'm slaunch ->
  Ppat_gpu.Stats.t
(** Execute one staged launch (closure tree or reference fallback),
    applying the global-atomics serial gate of {!Interp.effective_jobs}. *)

val read_flag : Ppat_gpu.Memory.t -> string -> bool
(** Whether the flag buffer's element 0 is non-zero. *)

val clear_flag : Ppat_gpu.Memory.t -> string -> unit

val replay :
  ?on_notes:(string list -> unit) ->
  'm plan ->
  contents:(string * Ppat_ir.Host.buf) list ->
  run:('m slaunch -> Ppat_gpu.Stats.t) ->
  (unit, string) result
(** Replay the plan against fresh buffer contents: restore the initial
    bindings, refill every program buffer in place from [contents]
    (shape-checked), reset the L2, then walk the ops — rebinding and
    zeroing temps and driving host control flow — calling [run] for each
    staged launch in cold-run order. [contents] must cover the program's
    full allocation plan ({!Ppat_ir.Host.alloc_all}). [Error] means the
    plan does not fit the request (a buffer changed shape) and the caller
    should fall back to a cold run; the plan itself stays valid. *)
