(** Degree-of-parallelism control (paper Algorithm 1, ControlDOP).

    After the constraint search picks the best-scoring mapping, the DOP is
    adjusted against the device targets: if fewer than MIN_DOP threads
    would run, a Span(all) level is split into k sections (Split(k) plus a
    combiner kernel); if more than MAX_DOP would run, a Span(1) level is
    coarsened to Span(n). Sizes are the actual launch-time sizes, which is
    the "dynamic decision" half of the paper's static/dynamic split. *)

val control :
  Ppat_gpu.Device.t -> sizes:int array -> ?splittable:(int -> bool) ->
  Mapping.t -> Mapping.t
(** Returns a copy with at most one span replaced. The split count is
    capped so every section still covers at least one block of work, and
    the span factor so every thread still has at least one point. Only
    levels where [splittable] holds (default: all) may become Split(k). *)
