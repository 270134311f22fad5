(** Memoised mapping search.

    An LRU over {!Strategy.decide} results keyed by {!Canon.nest_key}
    (the run's [shuffle] bit included) plus strategy and cost-model tags:
    two alpha-equivalent nests on the same device with the same resolved
    parameters share one search. The hit/miss/eviction counters surface
    in {!Ppat_metrics.Metrics} under the cache label ["search_memo"]. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh memo (default capacity 256 decisions). *)

val key :
  ?model:Cost_model.kind ->
  ?shuffle:bool ->
  ?params:(string * int) list ->
  ?bind:string ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Pat.pattern ->
  Strategy.t ->
  string
(** The exact cache key [decide] uses — exposed for tests. *)

val decide :
  t ->
  ?model:Cost_model.kind ->
  ?shuffle:bool ->
  ?params:(string * int) list ->
  ?bind:string ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Pat.pattern ->
  Strategy.t ->
  Strategy.decision
(** Like {!Collect.collect} followed by {!Strategy.decide}, but answers
    repeats from the cache. Decisions are copied on both store and
    return, so cached mappings are never aliased. [params] must be the
    same environment the uncached path would hand to [Collect.collect]
    (host-loop variables already bound). *)

val stats : t -> Ppat_metrics.Lru.stats
val flush : t -> unit
val length : t -> int
