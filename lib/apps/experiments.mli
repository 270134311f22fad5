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

val fig17 : jobs:int -> Ppat_gpu.Device.t -> table
(** Score against performance over the mapping space of a skewed
    Mandelbrot, as a view over {!Ppat_harness.Runner.mapspace} with top-6
    on [jobs] pool domains. The ["summary"] row holds the best sampled
    mapping (the baseline), the soft model's pick (absent when it failed
    to simulate), the MultiDim pick and the warp-based preset. Then one
    row per sampled mapping, by descending soft score: labelled with the
    score, one cell named by the mapping, checked against the CPU
    reference (a lowering or simulation failure is a failed cell with
    [nan] seconds). The note gives the sampled, population and failed
    counts and soft's rank correlation and regret. *)

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
(** Each row normalised to its baseline cell (or its first cell when it
    has none); a failed cell is marked [(!)]. A lone cell without the
    baseline prints its absolute seconds. *)

val failures : table -> (string * string) list
(** Row label and variant of every cell that failed validation. *)

val all : jobs:int -> Ppat_gpu.Device.t -> (string * (unit -> table)) list
(** Named thunks that run each figure, in paper order; [jobs] is the
    pool width of figures that fan out themselves (fig17). *)
