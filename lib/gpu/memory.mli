(** Simulated device global memory.

    Buffers live in a single flat byte-address space so the interpreter can
    coalesce a warp's accesses exactly the way the hardware memory
    controller does: the 32 lane addresses of one warp instruction are
    grouped into distinct aligned [transaction_bytes] segments and each
    segment costs one DRAM transaction (Section II, "GPU Hardware"). *)

type t

type entry = {
  base : int;  (** byte address of element 0, 256-byte aligned *)
  elem_bytes : int;
  data : Ppat_ir.Host.buf;  (** mutable contents *)
}

val create : unit -> t

val load : t -> string -> Ppat_ir.Host.buf -> entry
(** Allocate a named buffer and copy host contents in. Re-loading an
    existing name rebinds it to a fresh allocation. *)

val alloc_f : t -> string -> int -> entry
(** Allocate a zero-filled float buffer of [n] elements. *)

val alloc_i : t -> string -> int -> entry

val find : t -> string -> entry
(** @raise Invalid_argument on unknown names. *)

val mem : t -> string -> bool

val swap : t -> string -> string -> unit
(** Exchange the storage bound to two names (host-side pointer swap). *)

val rebind : t -> string -> entry -> unit
(** Bind [name] to an existing entry without allocating — staged-plan
    replay restores the bindings that held when the plan was staged. *)

val reset_cache : t -> unit
(** Drop all cached L2 lines, returning the cache model to the state of a
    fresh memory (the slice count is re-fixed by the next access). Lets a
    staged-plan replay start from the same cold cache a fresh run would. *)

val refill : entry -> Ppat_ir.Host.buf -> (unit, string) result
(** Overwrite an entry's contents in place from host data of the same
    element type and length; the entry's base address and array identity
    are preserved, which is what keeps staged closures valid. *)

val zero : entry -> unit
(** Zero an entry's contents in place (replaying the zero-fill of a fresh
    temp allocation). *)

val to_host : t -> string -> Ppat_ir.Host.buf
(** Copy a buffer's current contents back out. *)

val addr : entry -> int -> int
(** Byte address of element [i]. *)

val coalesce : transaction_bytes:int -> int list -> int
(** Number of aligned transactions covering the given byte addresses — the
    coalescing rule applied per warp memory instruction. *)

val segments : transaction_bytes:int -> int list -> int list
(** The distinct aligned transaction (cache line) ids behind those
    addresses, in ascending order. Thin wrapper over the allocation-free
    array path below. *)

(** {2 Allocation-free warp-access primitives}

    The simulator's hot loop classifies one warp memory instruction at a
    time — at most [warp_size] addresses. These helpers work on reusable
    int-array prefixes so the inner loop allocates nothing. They all
    mutate the prefix in place (sorting it). *)

val dedup_lines : transaction_bytes:int -> int array -> int -> int
(** [dedup_lines ~transaction_bytes a n] maps [a.(0..n-1)] from byte
    addresses to line ids, sorts and dedups in place; returns the count of
    distinct lines left in [a.(0..result-1)] (ascending). *)

val distinct_and_worst : int array -> int -> int * int
(** Distinct values and the largest multiplicity in [a.(0..n-1)] (atomic
    contention accounting). Sorts the prefix in place. [(0, 0)] if empty. *)

val bank_conflict_factor : banks:int -> int array -> int -> int
(** Shared-memory replay factor of word indices [a.(0..n-1)]: the maximum
    number of {e distinct} words landing in one of [banks] banks (>= 1;
    same-word broadcast is free). Clobbers the prefix. *)

val cache_access_lines :
  t -> cap_lines:int -> ?slices:int -> int array -> int -> int
(** Array-prefix variant of {!cache_access}: runs [lines.(0..n-1)] through
    the L2 model and returns the hit count.

    [slices] (default 1) shards the L2 into that many address-hashed
    slices — one per memory partition, mirroring the hardware's banked L2
    ({!Device.l2_slices}). A line id maps to exactly one slice; each slice
    has its own tick clock and evicts against its own [cap_lines / slices]
    share, so a slice's hit/miss outcome depends only on the sub-stream
    routed to it. That independence is what makes parallel-simulation
    replay deterministic. The slice count is fixed by the {e first} cache
    access on a given memory and ignored afterwards. *)

val cache_access : t -> cap_lines:int -> lines:int list -> int
(** Run transaction lines through the device-lifetime L2 model (an
    approximate-LRU set of line ids, shared across kernel launches like the
    real unified L2); returns how many of them hit. List-based legacy
    entry point; models a single unified slice. *)
