(** Execution statistics collected by the SIMT interpreter for one kernel
    launch, consumed by {!Timing}.

    Counters are warp-granular: one warp-wide instruction counts once
    regardless of how many lanes are active, and instructions on both sides
    of a divergent branch are counted (that is how divergence costs show
    up). *)

type t = {
  mutable warp_insts : float;  (** dynamic warp instructions issued *)
  mutable mem_insts : float;  (** global-memory warp instructions *)
  mutable transactions : float;  (** coalesced DRAM transactions issued *)
  mutable bytes : float;  (** bytes served by DRAM (L2 misses) *)
  mutable l2_bytes : float;  (** bytes served by the L2 cache (hits) *)
  mutable smem_insts : float;  (** shared-memory warp instructions *)
  mutable smem_conflict_extra : float;
      (** extra serialised shared-memory cycles due to bank conflicts *)
  mutable syncs : float;
  mutable shuffles : float;
      (** warp shuffle instructions (register exchanges: no shared
          memory, no bank conflicts, no barrier) *)
  mutable divergent_branches : float;
  mutable atomics : float;  (** atomic warp instructions *)
  mutable atomic_serial_extra : float;
      (** extra serialisation from same-address atomic contention *)
  mutable mallocs : float;  (** device-side allocations executed *)
}

val create : unit -> t
val add : t -> t -> unit
(** [add acc s] accumulates [s] into [acc]. *)

val reset : t -> unit
val copy : t -> t

val to_assoc : t -> (string * float) list
(** Every counter as a (name, value) pair, in declaration order. {!pp} and
    the profiling JSON exporter both iterate this list, so the printed and
    exported field sets cannot drift apart. *)

val equal : t -> t -> bool
(** Exact (bitwise) equality of every counter — the differential tests
    require the two execution engines to agree exactly, not within a
    tolerance. *)

val l2_hit_rate : t -> float
(** Fraction of global-memory bytes served by the L2 (0 when there is no
    traffic). *)

val bytes_per_transaction : t -> float
(** Average bytes moved per coalesced transaction — 128 means perfectly
    coalesced on the K20c; approaching [transaction_bytes]/warp-size means
    fully scattered. 0 when there are no transactions. *)

val pp : Format.formatter -> t -> unit
