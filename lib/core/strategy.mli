(** Mapping strategies: the paper's automatic analysis plus the fixed
    strategies of previous work it is compared against (Section IV-B,
    Figure 7).

    The fixed strategies are expressed in the same mapping parameters:
    - {e 1D}: parallelise only the outermost level (one thread per outer
      index); inner levels run sequentially inside the thread;
    - {e thread-block/thread} (Copperhead): one block per outer index,
      inner level across the 1024 threads of the block;
    - {e warp-based} (Hong et al.): one warp per outer index, inner level
      across the 32 threads of the warp (outer block size 16).

    Fixed strategies still honour hard Span(all) requirements (they must
    produce correct code) but perform no DOP control — their fixedness is
    exactly what Figures 3 and 13 measure. *)

type t =
  | Auto  (** the paper's locality-aware search ("MultiDim") *)
  | One_d
  | Thread_block_thread
  | Warp_based
  | Fixed of Mapping.t  (** externally supplied (mapping-space sweeps) *)

type decision = {
  mapping : Mapping.t;
  raw_mapping : Mapping.t;
      (** winning candidate before DOP control; equals [mapping] for
          presets. The search trace records raw candidates, so trace
          consumers match against this. *)
  score : float;
  via : string;  (** provenance for reports *)
  model : Cost_model.kind;  (** the cost model active when deciding *)
  predicted : Predict.t option;
      (** static prediction for [mapping]; recorded for every strategy
          (including presets, which the model did not choose) so the
          profile layer can report predicted-vs-simulated time *)
}

val name : t -> string

val of_string : name:string -> string -> (t, string) result
(** Parse a strategy name ([auto|1d|tbt|warp], plus the long aliases
    [multidim|one_d|thread_block|warp_based]). The error names [name] —
    the flag or field the value came from — and the accepted values. *)

val decide :
  ?trace:(Search.traced -> unit) ->
  ?model:Cost_model.kind ->
  ?shuffle:bool ->
  Ppat_gpu.Device.t ->
  Collect.t ->
  t ->
  decision
(** Resolve a strategy into a concrete mapping for an analysed nest.
    [trace] receives every candidate considered: the full enumeration for
    [Auto] (see {!Search.search}), the single preset mapping otherwise.
    [model] defaults to {!Cost_model.default}; it steers the ranking for
    [Auto] and is recorded (plus a prediction) for every strategy.
    [shuffle] goes to {!Predict.predict}. *)
