(** Per-access-site counter matrix: one row per static access site of a
    kernel (plus an overflow row for updates naming no valid site), one
    column per attributed statistic. All values are integral floats, so
    sums are exact and merging is order-independent — the column totals
    equal the aggregate {!Stats.t} counters bit for bit. *)

type t

val col_mem_insts : int
val col_transactions : int
val col_bytes : int
val col_l2_bytes : int
val col_smem_insts : int
val col_smem_conflict_extra : int
val col_atomics : int
val col_atomic_serial_extra : int
val col_divergent_branches : int

val create : int -> t
(** [create n] makes a zeroed matrix for sites [0 .. n-1] (plus the
    overflow row). *)

val create_like : t -> t
val sites : t -> int

val bump : t -> int -> int -> float -> unit
(** [bump t site col v] adds [v] to the cell; out-of-range sites hit the
    overflow row, never get dropped. *)

val get : t -> int -> int -> float

val add : t -> t -> unit
(** [add acc t] folds [t] into [acc]; both must cover the same site
    count. Exact for the integral values both engines produce. *)

val reset : t -> unit

val equal : t -> t -> bool
(** Bit-exact comparison of every cell. *)

val row : t -> int -> (string * float) list
val overflow : t -> (string * float) list
val overflow_is_zero : t -> bool

val totals : t -> Stats.t
(** Column sums as a [Stats.t] (unattributed counters left at zero). *)
