(** End-to-end experiment runner.

    For one program and one mapping strategy this module performs the whole
    paper pipeline: analyse each top-level nest (Section IV-C), pick a
    mapping (Section IV-D or a fixed preset), lower to kernels at each
    launch with the actual parameter values (Section IV-E), execute on the
    SIMT simulator, and price the run with the timing model. The CPU
    reference interpreter provides both the golden outputs every GPU run is
    validated against and the op counts for the multi-core baseline. *)

type gpu_result = {
  seconds : float;  (** summed simulated kernel time incl. launch overhead *)
  kernels : int;  (** kernels launched *)
  stats : Ppat_gpu.Stats.t;  (** aggregated over all launches *)
  data : Ppat_ir.Host.data;  (** final contents of all program buffers *)
  decisions : (string * Ppat_core.Strategy.decision) list;
      (** mapping per top-level pattern label *)
  notes : string list;  (** codegen fallbacks *)
  profile : Ppat_profile.Record.kernel list;
      (** one record per simulated kernel launch, in launch order: label,
          geometry, mapping, per-launch stats, full timing breakdown and
          simulator wall clock. The per-launch stats sum to [stats]. *)
}

val run_gpu :
  ?engine:Ppat_kernel.Interp.engine ->
  ?sim_jobs:int ->
  ?attr:bool ->
  ?opts:Ppat_codegen.Lower.options ->
  ?params:(string * int) list ->
  ?model:Ppat_core.Cost_model.kind ->
  ?memo:Ppat_core.Search_memo.t ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  Ppat_core.Strategy.t ->
  Ppat_ir.Host.data ->
  gpu_result
(** Simulate the program under a strategy. [params] override program
    defaults; [engine] selects the SIMT execution engine (defaults to
    {!Ppat_kernel.Interp.default_engine}[ ()]); [model] selects the cost
    model driving the mapping decisions (defaults to
    {!Ppat_core.Cost_model.default}[ ()], i.e. [PPAT_COST_MODEL]). Each
    decision's static prediction is attached to its pattern's main kernel
    launches in [profile]. [sim_jobs] sets the simulator's intra-launch
    worker-domain count (defaults to
    {!Ppat_kernel.Interp.default_jobs}[ ()], i.e. [PPAT_SIM_JOBS]);
    statistics are independent of it, only wall clock changes.
    [attr] (default false) collects per-access-site counter attribution
    into each profile record's [site_attr] — engine- and jobs-invariant,
    summing exactly to the launch's aggregate stats.

    It is {!decide_all} followed by {!stage}, both with [opts] (default
    {!Ppat_codegen.Lower.effective_options}[ ()]), with the plan dropped. *)

val run_gpu_mapped :
  ?engine:Ppat_kernel.Interp.engine ->
  ?sim_jobs:int ->
  ?attr:bool ->
  ?opts:Ppat_codegen.Lower.options ->
  ?params:(string * int) list ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  (int -> Ppat_core.Mapping.t) ->
  Ppat_ir.Host.data ->
  gpu_result
(** Like {!run_gpu} with an explicit mapping per top-level pattern pid
    instead of search decisions: the same staging walk, plan dropped; the
    result carries no decisions and its records say
    [via = "explicit mapping"]. *)

type cpu_result = {
  cpu_seconds : float;  (** multi-core cost-model estimate *)
  cpu_data : Ppat_ir.Host.data;
  counts : Ppat_cpu.Interp_ref.counts;
}

val run_cpu :
  ?params:(string * int) list ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Host.data ->
  cpu_result

val input_bytes :
  ?params:(string * int) list -> Ppat_ir.Pat.prog -> int
(** Bytes of input buffers, for the PCIe-transfer bars of Figure 14. *)

val check :
  ?eps:float ->
  ?unordered:string list ->
  ?only:string list ->
  Ppat_ir.Pat.prog ->
  expected:Ppat_ir.Host.data ->
  actual:Ppat_ir.Host.data ->
  (unit, string) result
(** Compare GPU outputs against the CPU oracle buffer by buffer. Buffers
    named in [unordered] (filter/group-by outputs, whose element order is
    nondeterministic under atomics) are compared as sorted multisets.
    [only] restricts the comparison (used for hand-written baselines that
    stage differently but agree on the designated results). A program
    buffer absent from [expected] or [actual] yields a descriptive
    [Error] naming the buffer and side, never an exception. *)

val analysis_params :
  Ppat_ir.Pat.prog -> (string * int) list -> (string * int) list
(** The parameter environment used for mapping analysis: caller params over
    program defaults, plus every host-loop variable bound to the midpoint
    of its range (a representative iteration). *)

(** {2 Staged plans}

    Every run in this module walks the host program once, in {!stage}:
    each launch is lowered, staged (compiled against the run's memory)
    and executed, and the walk records a replayable {!plan} as it goes. A
    cold run ({!run_gpu}, {!run_gpu_mapped}, a sweep candidate) is a
    staging whose plan is dropped. The serving path keeps the phases
    apart: decide (memoisable through {!Ppat_core.Search_memo}), stage,
    and replay (re-run the plan against fresh data, paying simulation
    cost only). A replayed result is bit-identical to a cold run of the
    same program — same statistics, same buffer contents — under either
    engine and any [sim_jobs]. *)

val decide_all :
  ?model:Ppat_core.Cost_model.kind ->
  ?memo:Ppat_core.Search_memo.t ->
  ?opts:Ppat_codegen.Lower.options ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  (string * int) list ->
  Ppat_core.Strategy.t ->
  (int * Ppat_core.Strategy.decision) list
(** One mapping decision per top-level pattern, keyed by pattern id.
    [memo] answers repeats from the canonical-digest cache instead of
    re-running collection and search; both read [opts]' [shuffle] bit. *)

type plan
(** A staged program: compiled closure trees plus the host control flow
    and memory image needed to replay them. Holds its staging memory
    alive; replays of one plan serialise on an internal lock. *)

type staged_run = {
  st_result : gpu_result;  (** the cold run performed while staging *)
  st_plan : plan option;  (** [None] when the program is unstageable *)
  st_unstageable : string option;
      (** why no plan was produced (flag-loop bodies that allocate temps
          or swap buffers cannot be replayed faithfully) *)
  st_stage_seconds : float;
      (** wall clock spent lowering and compiling closures — the cost a
          replay avoids *)
}

val stage :
  ?engine:Ppat_kernel.Interp.engine ->
  ?sim_jobs:int ->
  ?attr:bool ->
  ?opts:Ppat_codegen.Lower.options ->
  ?params:(string * int) list ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  decisions:(int * Ppat_core.Strategy.decision) list ->
  Ppat_ir.Host.data ->
  staged_run
(** Execute the program once with the given [decisions] (this is the
    cold run) while recording a replayable plan. A flag loop's body is
    staged on its first iteration; later iterations run the staged ops
    through {!Ppat_kernel.Staged.run_ops}. *)

val replay :
  ?sim_jobs:int ->
  ?attr:bool ->
  plan ->
  Ppat_ir.Host.data ->
  (gpu_result, string) result
(** Re-run a staged plan against fresh input data. [Error] means the data
    does not fit the plan (a buffer changed shape or type) and the caller
    should fall back to a cold run. *)

(** {2 Mapping-space sweeps}

    A sweep evaluates a candidate population one cold run per candidate,
    each through the staging walk above with a fresh memory image, so
    every result is bit-identical to a one-at-a-time {!run_gpu_mapped} of
    the same mapping. Candidates are also keyed by mapping {e shape} —
    kernel structure identical up to geometry and constant parameters
    ({!Ppat_codegen.Lower.shape_key}) — for reporting only. *)

val result_digest : gpu_result -> string
(** MD5 hex, through {!Ppat_ir.Enc}, of a result's model seconds, kernel
    count, named statistics, output bits and each record's index, label,
    kernel, geometry, mapping, statistics and timing breakdown: it moves
    only when one of these values moves, and compares across builds.
    Wall clock, [via], [predicted] and [site_attr] are left out, so every
    engine path and [sim_jobs] digests equal. Served answers carry it. *)

type sweep_candidate = {
  sc_mapping : Ppat_core.Mapping.t;
  sc_shape : string option;
      (** the candidate's shape key; [None] when it does not lower *)
  sc_result : (gpu_result, string) result;
  sc_digest : string option;  (** {!result_digest} of a successful run *)
  sc_target_seconds : float option;
      (** summed model seconds of the target pattern's kernels — the
          quantity candidate mappings compete on *)
  sc_stage_seconds : float;
      (** wall clock spent lowering and compiling the candidate's launches;
          0 for a failure *)
}

type sweep_stats = {
  sw_candidates : int;
  sw_shapes : int;  (** distinct shape keys among lowerable candidates *)
  sw_failed : int;
  sw_stage_seconds : float;  (** summed staging wall clock *)
  sw_wall_seconds : float;  (** whole-sweep wall clock *)
}

val sweep_mapped :
  ?engine:Ppat_kernel.Interp.engine ->
  ?sim_jobs:int ->
  ?jobs:int ->
  ?opts:Ppat_codegen.Lower.options ->
  ?params:(string * int) list ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  target_pid:int ->
  base:(int * Ppat_core.Mapping.t) list ->
  Ppat_core.Mapping.t array ->
  Ppat_ir.Host.data ->
  sweep_candidate array * sweep_stats
(** Evaluate a population of candidate mappings for the pattern
    [target_pid], holding every other top-level pattern at its [base]
    mapping. Candidates fan out over the {!Ppat_parallel} pool ([jobs],
    default 1); per-candidate results and digests are independent of
    [jobs] and of the population around them. Counts every evaluation on
    the [sweep.candidates_evaluated] metric. *)

(** {2 Mapping spaces} *)

type target_space = {
  ts_base : (int * Ppat_core.Mapping.t) list;
      (** the soft-model auto mapping of every top-level pattern, by pid *)
  ts_target : Ppat_ir.Pat.nested;
      (** the first pattern with the richest hard-feasible mapping space *)
  ts_collect : Ppat_core.Collect.t;  (** the target's collected constraints *)
  ts_candidates : Ppat_core.Mapping.t array;
      (** the target's hard-feasible mappings under the soft model, in
          enumeration order, structurally equal duplicates dropped *)
  ts_duplicates : int;  (** enumerated mappings dropped as duplicates *)
}

val target_space :
  ?params:(string * int) list ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  target_space
(** The candidate space a mapping-space sweep evaluates: vary the target
    pattern over [ts_candidates] while every other pattern keeps its
    [ts_base] mapping ({!sweep_mapped}'s [~target_pid] and [~base]). Used
    by {!mapspace}. Raises [Invalid_argument] when the program has no
    launches. *)

(** {2 Mapping-space reports}

    How well does each cost model rank the mappings the simulator times?
    (The paper's Fig 17 and Section VI-G.) One rule answers it: rank the
    {!target_space} under every {!Ppat_core.Cost_model.kind}, simulate
    the union of each model's top-k and a strided sample
    ({!Ppat_core.Sweep.sample}) through {!sweep_mapped}, and compare.
    [ppat mapspace] prints this report; a tier-1 table pins it. *)

type model_report = {
  mr_model : Ppat_core.Cost_model.kind;
  mr_spearman : float;
      (** Spearman rho of the model's rank positions against simulated
          seconds over the simulated sample; [nan] when undefined *)
  mr_regret : float;
      (** {!Ppat_core.Sweep.regret} of the model's pick over the best
          simulated mapping; [nan] when the pick failed to simulate *)
  mr_selected : int;  (** population index of the model's pick *)
  mr_selected_cycles : float option;
      (** the pick's predicted cycles, when the model consults the
          predictor *)
}

type mapspace = {
  ms_space : target_space;
  ms_sample : int array;  (** population indices simulated, ascending *)
  ms_results : sweep_candidate array;  (** one per [ms_sample] entry *)
  ms_stats : sweep_stats;
  ms_seconds : (int * float) list;
      (** population index and target seconds of every successful
          simulation, ascending by index *)
  ms_models : model_report list;  (** in {!Ppat_core.Cost_model.all} order *)
  ms_predictor_spearman : float;
      (** the analytical predictor's cycles against simulated seconds *)
}

val mapspace :
  ?engine:Ppat_kernel.Interp.engine ->
  ?sim_jobs:int ->
  ?jobs:int ->
  ?opts:Ppat_codegen.Lower.options ->
  ?params:(string * int) list ->
  top:int ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Host.data ->
  (mapspace, string) result
(** The mapping-space report of [prog] with [top] candidates per model.
    [engine], [sim_jobs], [jobs] and [opts] are {!sweep_mapped}'s; [opts]
    also carries the [shuffle] bit the rankings price. [Error] names why
    nothing can be compared: an empty target space or fewer than two
    successful simulations. *)
