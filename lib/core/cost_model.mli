(** Pluggable cost models for the mapping search.

    Algorithm 1 ranks hard-feasible candidates; {e how} they are ranked
    is a cost model. Three implementations:

    - [Soft]: the paper's weighted soft-constraint score
      ({!Score.score}), ties broken towards higher DOP and then towards
      thread blocks nearest 256 threads — bit-identical to the
      historical behaviour.
    - [Analytical]: predicted cycles from the static performance
      predictor ({!Predict}), the Section VI-G integration of a
      Hong&Kim-style model into selection. Lower predicted cycles win;
      residual ties fall back to the soft ordering.
    - [Hybrid]: soft-constraint pruning with analytical tie-breaking —
      the weighted score shortlists (exact ties on the summed weights
      are common because candidates satisfy the same constraint sets),
      and predicted cycles decide within the shortlist.

    Every model sees only hard-feasible candidates (the enumeration
    prunes violations before scoring), so no model can select a
    hard-infeasible mapping.

    Selection: pass [?model] explicitly, or let {!default} read the
    [PPAT_COST_MODEL] environment variable ([soft] | [analytical] |
    [hybrid]; unset means [Soft], anything else fails fast). The [ppat
    --cost-model] flag threads through the same type. *)

type kind = Soft | Analytical | Hybrid

val name : kind -> string
(** ["soft"] | ["analytical"] | ["hybrid"]. *)

val of_string : string -> (kind, string) result

val default : unit -> kind
(** [PPAT_COST_MODEL], defaulting to [Soft] when unset. A malformed value
    fails fast (via {!Ppat_gpu.Tuning.env}) instead of silently selecting
    [Soft]. *)

val all : kind list

type eval = {
  soft_score : float;  (** {!Score.score}, computed under every model *)
  predicted : Predict.t option;
      (** [Some] iff the model consulted the predictor *)
  key : float array;
      (** descending-lexicographic ranking key; {!better} compares these *)
}

val evaluate :
  ?shuffle:bool -> kind -> Ppat_gpu.Device.t ->
  Collect.t -> Mapping.t -> eval
(** Evaluate one candidate. For [Soft] the key is
    [(score, dop, -block-size-proximity)] — comparing keys reproduces
    the historical comparison exactly, including its float-equality tie
    semantics. [Analytical] keys lead with [-predicted cycles]; [Hybrid]
    keys lead with the score and break ties with [-predicted cycles].
    [Soft] ignores [shuffle] (for {!Predict.predict}). *)

val better : eval -> eval -> bool
(** [better challenger incumbent]: strict descending-lexicographic
    comparison of the keys; equal keys keep the incumbent, preserving
    first-wins determinism of the enumeration order. *)

val rank :
  ?shuffle:bool ->
  kind ->
  Ppat_gpu.Device.t ->
  Collect.t ->
  Mapping.t array ->
  eval array * int array
(** Evaluate every candidate and order their indices best first by
    descending-lexicographic key. The sort is stable, so full ties keep
    enumeration order, matching the search's first-wins rule. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation between two paired samples (average ranks
    on ties, Pearson over the ranks). Returns [nan] for samples shorter
    than 2 or with zero rank variance. Used by the mapping-space report
    ([Runner.mapspace], [ppat mapspace]) and the predictor tests. *)
