(** Scoring of candidate mappings: the sum of the weights of the satisfied
    soft constraints (paper Algorithm 1, lines 21-26). *)

val soft_satisfied :
  Ppat_gpu.Device.t -> Mapping.t -> Constr.soft -> bool
(** - [Coalesce]: the access's stride in the x-assigned level is one
      element (with a warp-multiple block size) or zero (warp broadcast);
    - [Min_block]: total threads per block at least
      {!Ppat_gpu.Device.min_block_size};
    - [Fit]: the level's block size is at most
      max(warp size, next power of two of the level size);
    - [Lean_reduce]: the level's block size is at most twice the warp
      size. *)

type component = {
  constr : Constr.soft;
  satisfied : bool;
  weight : float;  (** contributed to the score iff [satisfied] *)
}

val explain :
  Ppat_gpu.Device.t -> Constr.soft list -> Mapping.t -> component list
(** Per-constraint score components for a candidate: which soft
    constraints it satisfies and the weight each one carries. [score] is
    the sum of the satisfied components' weights; the search trace records
    the full list so rejected candidates can be explained. *)

val score : Ppat_gpu.Device.t -> Constr.soft list -> Mapping.t -> float

val next_pow2 : int -> int
