(** Deterministic synthetic workload generators.

    All generators use a small splitmix-style PRNG keyed on an explicit
    seed, so every experiment and test is reproducible without touching the
    global [Random] state. *)

type rng

val rng : int -> rng
val next_float : rng -> float
(** Uniform in [0, 1). *)

val next_int : rng -> int -> int
(** Uniform in [0, bound). *)

val farray : ?lo:float -> ?hi:float -> seed:int -> int -> float array
val iarray : seed:int -> bound:int -> int -> int array

val permutation : seed:int -> int -> int array
(** A uniform random permutation of 0..n-1 (Fisher-Yates). *)

val csr_graph :
  seed:int -> nodes:int -> avg_degree:int ->
  int array * int array
(** [(row_ptr, cols)] of a random directed graph; degrees are skewed
    (roughly geometric around the average) to exercise load imbalance, the
    regime warp-based mapping was designed for. *)

val spd_matrix : seed:int -> int -> float array
(** Dense symmetric positive-definite matrix (row-major n x n), suitable
    for LU decomposition and Gaussian elimination without pivoting. *)

val fixed_nodes :
  int -> (string * int) list -> ((string * int) list, string) result
(** Parameter rule of the CSR graph apps: their [row_ptr] extent
    ([nodes + 1]) is built into the program, so [NODES] cannot be
    overridden to another value. *)

val steps_below_n :
  (string * int) list -> ((string * int) list, string) result
(** Parameter rule of the elimination apps: step [t] updates rows
    [t + 1 ..], so [STEPS] must be at most [N - 1]. *)
