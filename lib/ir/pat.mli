(** Parallel patterns, pattern bodies and whole programs (paper Section III,
    Table I).

    A program is a sequence of host-side steps; each [Launch] step names a
    top-level (level-0) pattern that becomes one GPU kernel (or several, when
    the mapping requires a combiner, cf. Split(k)). Pattern bodies contain
    sequential statements and {e nested} patterns, which is where the mapping
    analysis of Section IV operates. *)

(** How a pattern's index domain size is known. *)
type psize =
  | Sconst of int  (** compile-time constant *)
  | Sparam of string  (** runtime parameter, known at kernel launch *)
  | Sexp of Exp.t
      (** launch-time computable expression over parameters (e.g. [N-1-t]
          inside a host loop); known at launch, so it does not force
          Span(all) *)
  | Sdyn of Exp.t
      (** computed per outer iteration (e.g. a CSR row degree); unknown at
          launch, which forces Span(all) — paper Section IV-A *)

(** Associative combiner of a [Reduce]. [combine] references the two operands
    through the variable names [a] and [b]. *)
type reducer = {
  init : Exp.t;
  a : string;
  b : string;
  combine : Exp.t;
}

type kind =
  | Map of { yield : Exp.t }
      (** Produce one element per index. Bound to an output buffer at level 0
          or to a pattern-local array when nested (the dynamic-allocation case
          of Section V-A). *)
  | Reduce of { yield : Exp.t; r : reducer }
      (** Reduce the per-index [yield] values with [r]; produces a scalar. *)
  | Arg_min of { yield : Exp.t }
      (** Index (as an integer) of the minimum [yield]; used by clustering. *)
  | Foreach  (** Effectful body only; no value produced (Table I). *)
  | Filter of { pred : Exp.t; yield : Exp.t }
      (** Keep [yield] of indices satisfying [pred]. Produces a compacted
          array plus an element count. *)
  | Group_by of { key : Exp.t; value : Exp.t; num_keys : Ty.extent }
      (** Group [value]s by integer [key] in [0, num_keys). Produces
          per-key counts, offsets, and the permuted values. *)

and stmt =
  | Let of string * Exp.t
  | Assign of string * Exp.t
      (** Update a [Let]-bound variable in place (loop-carried scalars in
          sequential [While]/[For] bodies). *)
  | Store of string * Exp.t list * Exp.t
      (** Write a global buffer (or a pattern-local array) element. *)
  | Atomic_add of string * Exp.t list * Exp.t
      (** Atomically accumulate into a buffer element (histograms, BFS
          frontier flags). *)
  | Nested of nested
  | If of Exp.t * stmt list * stmt list
  | For of string * Exp.t * Exp.t * stmt list
      (** Sequential loop [var] in [lo, hi); no parallelism exposed. *)
  | While of Exp.t * stmt list
      (** Sequential data-dependent loop (Mandelbrot escape iteration). *)

and nested = {
  bind : string option;
      (** Name the result: a global buffer at level 0, a local array (Map) or
          scalar variable (Reduce/Arg_min) when nested. Filter at level 0
          additionally writes ["<bind>_count"]. *)
  pat : pattern;
}

and pattern = {
  pid : int;  (** unique id; [Exp.Idx pid] is this pattern's index variable *)
  label : string;
  size : psize;
  kind : kind;
  body : stmt list;  (** executed before [yield]/[pred]/[key] per index *)
}

(** Whether a buffer lives as kernel input, output, or scratch. *)
type buf_kind = Input | Output | Temp

(** Physical linearisation of a logical multi-dimensional buffer. The layout
    optimisation of Section V-A flips this per temporary buffer. *)
type layout = Row_major | Col_major

type buffer = {
  bname : string;
  elem : Ty.scalar;
  dims : Ty.extent list;
  mutable blayout : layout;
  bkind : buf_kind;
}

(** Host-side control around kernel launches. *)
type step =
  | Launch of nested
  | Host_loop of { var : string; count : Ty.extent; body : step list }
      (** Run [body] for [var] = 0 .. count-1; [var] is visible as a runtime
          parameter inside (Gaussian elimination steps, stencil sweeps). *)
  | Swap of string * string
      (** Exchange the storage of two same-shaped buffers (ping-pong). *)
  | While_flag of { flag : string; max_iter : int; body : step list }
      (** Clear [flag][0], run [body], repeat while [flag][0] <> 0 (BFS
          frontier loop), up to [max_iter] rounds. *)

type prog = {
  pname : string;
  defaults : (string * int) list;
      (** default values of runtime parameters, used when the caller supplies
          none and by the analysis when a size is a parameter *)
  buffers : buffer list;
  steps : step list;
}

val pattern :
  ?label:string -> pid:int -> size:psize -> kind:kind -> stmt list -> pattern

val nested : ?bind:string -> pattern -> nested
val buffer : ?layout:layout -> string -> Ty.scalar -> Ty.extent list -> buf_kind -> buffer
val find_buffer : prog -> string -> buffer

val sum_reducer : reducer
(** Floating-point [+] with init 0. *)

val max_reducer : reducer
val min_reducer : reducer

val validate : prog -> (unit, string) result
(** Structural checks: unique pattern ids, unique buffer names, stores target
    existing buffers or local arrays, [bind] present where the kind produces
    a value, nesting depth at most 3 (the number of logical dimensions the
    code generator emits), dynamic sizes only on nested patterns. *)

val launches : prog -> nested list
(** The distinct top-level launches of the program by pattern id, in
    first-seen order, looking inside host loops and flag loops. *)

val iter_patterns : (int -> pattern -> unit) -> prog -> unit
(** Apply a function to every pattern in the program with its nest level
    (0 = outermost). *)

val fold_patterns : ('a -> int -> pattern -> 'a) -> 'a -> prog -> 'a

val pp_prog : Format.formatter -> prog -> unit
(** Human-readable listing of the whole program, in the style of the paper's
    Figure 5 pseudocode. *)

val pp_pattern : Format.formatter -> pattern -> unit
val pp_psize : Format.formatter -> psize -> unit
