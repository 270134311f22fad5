(** The paper's evaluation (Section VI): one function per figure.

    Each experiment runs its applications through the CPU oracle and the
    simulated GPU under the relevant strategies, validates every run, and
    returns a table of absolute simulated times that the printer normalises
    the way the paper's figures do. Sizes are scaled down from the paper's
    (the simulator interprets every warp) but keep the paper's shapes —
    skew ratios, level counts, degree distributions; see DESIGN.md. *)

type cell = {
  variant : string;  (** strategy / configuration name *)
  seconds : float;
  ok : bool;  (** validated against the CPU reference *)
}

type row = { rlabel : string; cells : cell list }

type table = {
  title : string;
  baseline : string;  (** variant every row is normalised to *)
  rows : row list;
  notes : string list;
}

val fig3 : Ppat_gpu.Device.t -> table
(** sumCols/sumRows on three matrix shapes (same total elements), fixed
    strategies normalised to MultiDim. *)

val fig12 : Ppat_gpu.Device.t -> table
(** Rodinia benchmarks: Manual vs MultiDim vs 1D, normalised to Manual. *)

val fig13 : Ppat_gpu.Device.t -> table
(** Row-/column-order variants vs the fixed 2D strategies, normalised to
    MultiDim. *)

val fig14 : Ppat_gpu.Device.t -> table
(** Real-world applications vs the multi-core CPU model; the Naive Bayes
    row includes a MultiDim+transfer variant. *)

val fig16 : Ppat_gpu.Device.t -> table
(** Dynamic-allocation optimisation: malloc vs pre-allocation vs
    pre-allocation with mapping-aware layout. *)

type sweep_point = {
  mapping : Ppat_core.Mapping.t;
  score : float;
  sw_seconds : float;
}

val fig17 :
  ?max_points:int -> Ppat_gpu.Device.t -> sweep_point list * table
(** Mapping-space sweep on a skewed Mandelbrot: every sampled hard-feasible
    mapping with its score and simulated time, plus a summary table
    (best region, the auto pick, the warp-based preset). *)

val fig8_app : ?rows:int -> ?cols:int -> unit -> App.t
(** The paper's Figure 8 shape: an imperfect nest whose outer level reads a
    vector under an inner 2D sweep (used by the prefetch ablation). *)

val ablation : Ppat_gpu.Device.t -> table
(** Each mapping-guided optimisation toggled in isolation: shared-memory
    prefetch (Section V-B) on the paper's Figure 8 shape and on Gaussian,
    warp-synchronous reduction tails, atomic-append versus
    scan-compacted Filter, and shuffle synthesis ({!shuffle_row}). *)

val shuffle_row : ?frames:int -> Ppat_gpu.Device.t -> row
(** The ablation's shuffle-synthesis row: msmCluster ([frames] x 32
    centres x 32 dimensions, default 1024 frames) under the soft model's
    mapping, lowered with shared-memory reduction trees (["smem-tree"])
    and with warp shuffles (["shuffle"]). *)

val print_table : Format.formatter -> table -> unit
val print_sweep : Format.formatter -> sweep_point list -> unit

val all : Ppat_gpu.Device.t -> (string * (unit -> unit)) list
(** Named thunks that run and print each figure, in paper order. *)
