(** Per-warp memory-access classifier shared by both execution engines.

    One value of this type holds the reusable scratch for pricing the
    memory instructions of one warp statement at a time: lanes record
    their addresses slot by slot, and {!flush} folds each slot into the
    statistics — global slots through the coalescing rule plus the L2
    model, shared slots through the bank-conflict rule. Nothing is
    allocated per statement, and the number of memory instructions per
    statement is unbounded (slots grow on demand).

    Both the reference tree-walking interpreter and the closure-compiled
    engine drive this module, which is what makes their [Stats.t]
    bit-identical by construction. *)

type t

type kind = Global | Shared
(** Slot kinds, exposed for the node-major engine's {!set_slots}. *)

type l2_log
(** An ordered stream of deduped transaction-line groups produced by a
    [Log]-sinked scratch — one group per global warp memory instruction,
    in execution order. *)

type sink =
  | Direct  (** price L2 hits against the memory's table as slots flush *)
  | Log of l2_log
      (** price global slots provisionally as all-miss and append their
          line groups to the log; {!replay_log} later settles them against
          the real L2 in deterministic order. This is how parallel workers
          keep every counter bit-identical to a serial run without sharing
          (or locking) the L2 table. *)

val acquire_log : unit -> l2_log
(** Take a cleared log off the process-wide free list (or allocate one).
    Grown buffers are kept across launches, so steady-state parallel
    simulation stops re-growing megabyte logs from scratch. Thread-safe. *)

val release_log : l2_log -> unit
(** Return a log to the free list once its groups have been replayed. The
    caller must not touch it afterwards. *)

val create : ?sink:sink -> ?attr:Site_stats.t -> Device.t -> Memory.t -> Stats.t -> t
(** Scratch bound to one simulation run: constants derived from the
    device, the L2 of [mem] (split into [Device.l2_slices] slices), and
    the stats record to update. Not shareable across concurrent runs
    (domains create their own, with their own [Log] sink). [sink] defaults
    to [Direct]. When [attr] is given, every counter update is also
    attributed to the access site of its slot (see {!set_sites}). *)

val set_sites : t -> int array -> unit
(** Install the per-slot site ids of the statement about to execute:
    slot [s] of the next {!flush} is attributed to [sites.(s)]. Engines
    arm this before every group that can hold memory slots; a missing or
    short array routes to the attribution overflow row. Cheap (one store),
    with no effect when the scratch has no [attr]. *)

val begin_lane : t -> unit
(** Reset the slot cursor before executing a statement for the next lane. *)

val record_global : t -> int -> unit
(** Record a global access at the given byte address into the lane's
    current slot. *)

val record_shared : t -> int -> unit
(** Record a shared-memory access at the given word index. *)

val set_slots : t -> kind array -> int -> unit
(** [set_slots t kinds n] installs the statement's [n] memory slots with
    the given kinds and clears their lengths — the node-major engine knows
    a statement's slots at compile time and skips the per-lane cursor. *)

val record_at : t -> int -> int -> unit
(** [record_at t s addr] appends [addr] to slot [s] directly. Only valid
    after {!set_slots}, for at most one append per lane per slot (the slot
    buffers are warp-sized and this path never grows them). *)

val flush : t -> unit
(** Price all slots of the completed warp statement into the stats and
    clear them. Slots no lane touched are skipped. *)

val replay_log : ?attr:Site_stats.t -> Device.t -> Memory.t -> Stats.t -> l2_log -> int
(** Run a worker's logged line groups through [mem]'s sliced L2 in order,
    moving the provisional all-miss DRAM bytes of every hit into
    [l2_bytes] — per site when [attr] is given (each log group carries the
    site id of the slot that produced it). Replaying each chunk's log in
    serial block order feeds the L2 the exact line stream of a serial run,
    so hit counts match [jobs = 1] bit for bit. Returns the number of L2
    lines replayed. *)

val divergent : t -> int -> unit
(** Count one divergent branch, attributed to the given branch site. The
    reference engine funnels its divergence detection through this so the
    aggregate counter and the per-site row stay equal by construction. *)

val attr_divergent : t -> int -> unit
(** The attribution half of {!divergent} alone: bump only the per-site
    row. For the compiled engine, whose loop closures keep the aggregate
    bump inline and guard this call with a per-context flag — an
    unattributed run must not pay a cross-module call per divergent
    branch. *)

val atomic_begin : t -> unit
val atomic_record : t -> int -> unit

val atomic_commit : t -> int -> Memory.entry -> unit
(** [atomic_commit t site entry] folds the element indices recorded since
    [atomic_begin] into the atomic-contention counters (one warp atomic
    instruction: distinct addresses cost a transaction each, pile-ups
    serialise), attributed to the atomic's access site. *)
