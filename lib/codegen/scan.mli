(** Parallel exclusive prefix-sum substrate.

    The paper's Filter produces an ordered compaction, which requires a
    scan over the predicate flags ("a reduction or filter using multiple
    kernel launches", Section VII). This module emits the classic
    multi-kernel scan: per-block Hillis-Steele scans in shared memory, a
    recursive scan over the block sums, and an offset-add pass — all as
    ordinary kernel-IR launches that run on the simulator like any
    generated code. *)

val exclusive :
  name_prefix:string ->
  src:string ->
  dst:string ->
  total:string ->
  n:int ->
  kparams:(string * int) list ->
  Ppat_kernel.Kir.launch list * (string * Ppat_ir.Ty.scalar * int) list
(** Launches computing [dst.(i) = sum of src.(0..i-1)] over the [n]-element
    integer buffer [src], and [total.(0) = sum of src]. [dst], [src] and
    [total] must already exist in device memory; the returned
    [(name, elem, elems)] temporaries (block sums at each recursion level)
    must be allocated by the caller. All names are prefixed to stay unique
    per call site. *)
