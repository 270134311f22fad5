(** Mapping-space evaluation, pure side.

    The sweep evaluator in [lib/harness/runner.ml] executes candidate
    populations; this module owns the parts that need no simulator:

    - {!group_by}: partition a population by mapping shape
      ({!Ppat_codegen.Lower.shape_key} digests), which the sweep reports.
    - {!rank_disagreement} / {!select}: the active-learning policy — a
      simulation budget goes to the candidates whose rank differs most
      across cost models, plus each model's incumbent.
    - {!fit_affine}: least-squares affine calibration of predicted cycles
      against simulated seconds, threaded back through
      {!Cost_model.evaluate}'s [?calib].
    - {!regret} / {!mare}: the before/after statistics of the calibration
      loop. *)

val group_by : key:(int -> string option) -> int -> (string * int list) list
(** [group_by ~key n] partitions candidate indices [0..n-1] by [key],
    preserving first-seen group order and ascending index order within a
    group; indices whose key is [None] (unlowerable candidates) are
    dropped. *)

val rank_disagreement : int array list -> int -> float array
(** [rank_disagreement positions n]: [positions] holds one array per cost
    model with the rank of each candidate under that model; the result is
    each candidate's largest pairwise rank difference — the active-
    learning priority. *)

val select : budget:int -> always:int list -> float array -> int list
(** [select ~budget ~always disagreement] returns at most
    [max budget (length always)] candidate indices, ascending: all of
    [always] (each model's incumbent must be simulated for regret to be
    measurable) plus the highest-disagreement candidates until the budget
    is filled. Deterministic: ties break towards the lower index. *)

val fit_affine : (float * float) list -> Cost_model.calibration option
(** Ordinary least squares of [(predicted cycles, simulated seconds)]
    pairs. [None] when the sample is degenerate (fewer than 2 points,
    zero variance) or the fitted gain is not strictly positive — a
    non-monotone fit would reorder rankings, which the calibration
    contract forbids. *)

val regret : best:float -> float -> float
(** [regret ~best chosen]: how much slower the model's pick is than the
    best simulated candidate, [(chosen / best) - 1]. Zero when [best] is
    not positive. *)

val mare : (float * float) list -> float option
(** Mean absolute relative error of [(prediction, measurement)] pairs
    over the usable measurements; [None] when there are none. *)
