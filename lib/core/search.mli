(** Brute-force search for an efficient mapping (paper Algorithm 1).

    Candidates combine a permutation of logical dimensions over levels,
    per-level block sizes from powers of two up to the device block limit,
    and Span(1)/Span(all) per level (Span(all) forced where hard
    constraints require it). Hard block-size limits prune candidates; a
    pluggable {!Cost_model} ranks the survivors — the default [Soft]
    model scores by soft-constraint weights with ties towards higher DOP,
    then towards thread blocks closest to 256 threads, then towards the
    first candidate in a deterministic enumeration order (the paper picks
    randomly — determinism keeps tests stable). The winner finally goes
    through {!Dop.control}.

    A single generator ([iter_candidates], internal) produces candidates
    for both {!search} and {!enumerate}, so the Figure-17 sweep and the
    search can never drift. *)

type result = {
  mapping : Mapping.t;  (** after DOP control *)
  raw_mapping : Mapping.t;  (** best candidate before DOP control *)
  score : float;  (** soft-constraint score, under every cost model *)
  dop : int;  (** of [mapping], with the analysed sizes *)
  candidates : int;  (** hard-feasible candidates enumerated *)
  model : Cost_model.kind;  (** the cost model that decided *)
  predicted : Predict.t option;
      (** static prediction for [mapping] (the shipped, DOP-controlled
          one) — the profile layer compares it against simulated time *)
}

type traced = {
  t_mapping : Mapping.t;
  t_score : float;  (** soft-constraint score, under every cost model *)
  t_dop : int;  (** with the analysed sizes, before DOP control *)
  t_pruned : string list;
      (** hard-constraint violations; [[]] means hard-feasible *)
  t_softs : Score.component list;  (** per-soft-constraint deltas *)
  t_predicted : Predict.t option;
      (** predicted breakdown, when the active model consulted the
          predictor *)
  t_key : float array;  (** the active model's ranking key *)
}

val search :
  ?trace:(traced -> unit) ->
  ?model:Cost_model.kind ->
  ?shuffle:bool ->
  Ppat_gpu.Device.t ->
  Collect.t ->
  result
(** [trace], when given, receives every candidate the enumeration visits —
    including hard-infeasible ones, which otherwise never surface — with
    its score, DOP, violation list, soft-constraint breakdown and (under
    analytical models) predicted timing. Tracing never changes the search
    outcome. [model] defaults to {!Cost_model.default} (the
    [PPAT_COST_MODEL] environment variable, else [Soft]). [shuffle]
    goes to {!Predict.predict}. *)

val enumerate :
  ?model:Cost_model.kind ->
  Ppat_gpu.Device.t ->
  Collect.t ->
  (Mapping.t * Cost_model.eval) list
(** Every hard-feasible candidate with its evaluation under [model],
    before DOP control — the mapping-space scatter of paper Figure 17 and
    the input to [ppat modelcmp]. Consumes the same candidate generator
    as {!search} with the same evaluator, so scores cannot drift. *)

val hard_violations : Ppat_gpu.Device.t -> Mapping.t -> string list
(** Hard-constraint violations of an assembled candidate; [[]] means
    feasible. Exposed so model-comparison tooling and tests can assert
    feasibility of selected mappings. *)

val block_size_candidates : Ppat_gpu.Device.t -> int list
(** 1, 2, 4, ..., max threads per block. *)
