(** Mapping-space evaluation, pure side.

    The harness ([Runner.sweep_mapped] and the mapping-space report
    [Runner.mapspace]) executes candidate populations; this module owns
    the parts that need no simulator:

    - {!group_by}: partition a population by mapping shape
      ({!Ppat_codegen.Lower.shape_key} digests), which the sweep reports.
    - {!stride} / {!sample}: which candidates the report simulates —
      every cost model's top-k plus an evenly strided sample.
    - {!regret}: how much slower a model's pick is than the best
      simulated candidate. *)

val group_by : key:(int -> string option) -> int -> (string * int list) list
(** [group_by ~key n] partitions candidate indices [0..n-1] by [key],
    preserving first-seen group order and ascending index order within a
    group; indices whose key is [None] (unlowerable candidates) are
    dropped. *)

val stride : int -> int
(** [stride n = max 1 (n / 12)]: the spacing of {!sample}'s strided
    part, about a dozen candidates over a population of [n]. *)

val sample : top:int -> int array list -> int -> int list
(** [sample ~top orders n]: [orders] holds one ranking per cost model
    (population indices, best first); the result is the union of each
    ranking's first [top] indices and every [stride n]-th index from 0,
    ascending and without duplicates. *)

val regret : best:float -> float -> float
(** [regret ~best chosen]: how much slower the model's pick is than the
    best simulated candidate, [(chosen / best) - 1]. Zero when [best] is
    not positive. *)
