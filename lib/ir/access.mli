(** Memory-access analysis feeding the mapping constraints (paper
    Section IV-C).

    For every array read/write in a nest we compute the {e stride} of the
    physical (linearised) element index with respect to each enclosing
    pattern index. A stride of 1 in level L means adjacent iterations of L
    touch adjacent memory — mapping L to dimension x with a block size that
    is a multiple of the warp size coalesces those requests (soft local
    constraint, Table II). Each access also carries an execution-count
    estimate (product of enclosing pattern sizes, discounted by enclosing
    branches) which becomes the derived weight of its constraints
    (Figure 8). *)

type stride =
  | Known of int
  | Unknown  (** data-dependent or non-affine (e.g. indices loaded from
                 memory, as in QPSCD's random row selection) *)

type access = {
  abuf : string;  (** buffer (or pattern-local array) name *)
  aidxs : Exp.t list;  (** the logical indices as written in the program *)
  alocal : bool;
      (** pattern-local array: its physical layout is chosen {e after} the
          mapping by the pre-allocation optimisation, so its accesses add no
          coalescing constraints (Section V-A, last paragraph) *)
  is_store : bool;
  strides : (int * stride) list;
      (** stride per enclosing pattern pid, innermost last *)
  weight : float;  (** execution-count estimate of this access *)
  branch_depth : int;
}

val collect :
  params:(string * int) list -> Pat.prog -> Pat.pattern -> access list
(** All global and local-array accesses of one top-level nest. [params]
    resolves extents (fall back to program defaults, then
    {!Levels.default_dyn_size}). *)

val stride_of :
  params:(string * int) list ->
  env:(string * [ `E of Exp.t | `Opaque ]) list ->
  wrt:int ->
  Exp.t ->
  stride
(** Symbolic stride of an integer expression with respect to pattern index
    [wrt]. Let-bound variables are resolved through [env]; [`Opaque]
    bindings (values of nested reductions, loop carried scalars) make the
    result [Unknown] when they occur in the expression. Exposed for unit
    testing. *)

val eval_int :
  params:(string * int) list ->
  env:(string * [ `E of Exp.t | `Opaque ]) list ->
  Exp.t ->
  int option
(** Best-effort constant evaluation of an index expression (no pattern
    indices, parameters resolved). Exposed for unit testing. *)

val linearize :
  params:(string * int) list -> Pat.buffer -> Exp.t list -> Exp.t
(** Physical element index of a logical multi-dimensional access under the
    buffer's current layout. *)
