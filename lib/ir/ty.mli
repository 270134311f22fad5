(** Scalar types and array extents of the pattern IR (paper Section III).

    The IR supports scalars, arrays and structs-of-arrays; structs are
    represented as separate named buffers sharing an index space (e.g. a CSR
    graph is three buffers), so the type language itself only needs scalar
    element types and per-dimension extents. *)

(** Element type of a scalar value or array element. *)
type scalar =
  | I32  (** 32-bit integers (indices, counters, flags) *)
  | F64  (** double-precision floats (all numeric kernels) *)
  | Bool  (** booleans (predicates, visited flags) *)

(** A static array extent: either a compile-time constant or a named runtime
    parameter whose value is supplied at launch time. *)
type extent =
  | Const of int
  | Param of string

val scalar_bytes : scalar -> int
(** Size in bytes of one element when stored in simulated device memory.
    [I32] and [Bool] occupy 4 bytes, [F64] occupies 8. *)

val pp_scalar : Format.formatter -> scalar -> unit
val pp_extent : Format.formatter -> extent -> unit

val extent_value : (string * int) list -> extent -> int
(** [extent_value params e] resolves [e] against the runtime parameter
    environment. @raise Not_found if a parameter is unbound. *)
