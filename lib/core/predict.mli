(** Static per-candidate performance prediction (paper Section VI-G).

    The search's soft-constraint score (Algorithm 1) is a locality
    heuristic; the paper names integrating a Hong&Kim-style GPU
    performance model into mapping selection as the natural evolution.
    This module is that bridge: from the constraint analysis
    ({!Collect.t} access strides, weights and level sizes) and a
    candidate {!Mapping.t} it estimates — {e without simulating} — the
    counter set the simulator would produce (memory transactions per
    warp, warp instructions corrected for lane utilisation, barrier
    traffic of tree reductions) plus the launch geometry, and feeds both
    into the existing {!Ppat_gpu.Timing} breakdown to obtain predicted
    cycles.

    The estimates are deliberately coarse in absolute terms (element
    sizes are assumed 8 bytes, L2 hits and divergence are not modelled);
    what matters is that the mapping-dependent factors — coalescing,
    occupancy, serialisation, dispatch overhead — move the prediction
    the same way they move the simulator, so candidate {e rankings}
    agree ([ppat modelcmp] measures exactly that). *)

type access_est = {
  ae_buf : string;  (** buffer the access analysis attributed it to *)
  ae_store : bool;
  ae_tx_per_warp : float;
      (** estimated transactions per warp-wide execution
          ({!transactions_per_warp}) *)
  ae_transactions : float;
      (** estimated total transactions over the whole nest — the quantity
          the profile report joins against simulated per-site counts *)
}

type t = {
  geometry : Ppat_gpu.Timing.geometry;
      (** launch geometry the mapping lowers to (same derivation as
          [Lower]: {!Mapping.grid_extent} / {!Mapping.block_extent}) *)
  stats : Ppat_gpu.Stats.t;  (** estimated simulator counters *)
  utilization : float;
      (** fraction of launched thread-slots doing real work, in (0, 1];
          padding from oversized blocks or ragged grids dilutes it *)
  breakdown : Ppat_gpu.Timing.breakdown;
      (** {!Ppat_gpu.Timing.kernel_estimate} of [stats] under
          [geometry] *)
  cycles : float;  (** predicted total cycles, the ranking quantity *)
  seconds : float;  (** [breakdown.seconds], for simulator comparison *)
  per_access : access_est list;
      (** one estimate per global access, in analysis order — lets the
          report localise prediction error to individual buffers *)
}

val predict :
  ?shuffle:bool -> Ppat_gpu.Device.t -> Collect.t -> Mapping.t -> t
(** Predict the cost of running the analysed nest under a candidate
    mapping. Total work is mapping-independent (access weights from the
    analysis); the mapping decides how it folds into warps, blocks and
    sequential spans. Never raises, including on hard-infeasible
    candidates (the search trace evaluates those too).

    [shuffle] is the run's lowering bit (default [false], as in
    [Lower.default_options]): it prices warp-fitting x-dimension tree
    reductions as register shuffles — no barriers or shared-memory
    traffic — matching what the lowering emits for that run. *)

val transactions_per_warp :
  Ppat_gpu.Device.t -> Collect.t -> Mapping.t -> Ppat_ir.Access.access ->
  float
(** Estimated 128-byte transactions one warp-wide execution of the
    access generates: the product over block axes of the footprint each
    axis contributes (stride 0 broadcasts, stride 1 coalesces, large or
    unknown strides scatter), capped at one transaction per lane.
    Exposed for tests. *)
