(** Mapping-as-a-service: a persistent compile server over the pattern
    pipeline.

    One server holds two cache layers in front of {!Ppat_harness.Runner}:

    - a {e search memo} ({!Ppat_core.Search_memo}) keyed by the canonical
      nest digest, so alpha-equivalent nests on the same device under the
      same resolved parameters and cost model share one mapping search;
    - a {e staged-plan cache} keyed by the canonical program digest plus
      strategy, cost model, engine and shuffle tags, holding the compiled
      closure trees and staging memory image ({!Ppat_harness.Runner.plan}).

    A plan-cache hit skips search {e and} lowering {e and} closure
    compilation: the request pays only simulation cost, and its answer is
    bit-identical — same statistics, same buffer contents — to what a cold
    run of the same request would produce. Both caches are bounded LRUs
    whose hit / miss / eviction counters surface in the process metrics
    registry under the cache labels ["search_memo"] and ["plan_cache"].

    The wire protocol is line-delimited JSON (schema ["ppat-serve/1"]),
    served from stdin/stdout ([ppat serve]) or a Unix domain socket
    ([ppat serve --socket PATH]). A request names a bundled application
    and its parameters:

    {v
    {"id": 1, "app": "sum_rows", "params": {"r": 512, "c": 256},
     "strategy": "auto", "cost_model": "soft", "engine": "compiled",
     "sim_jobs": 1, "buffers": false, "validate": false,
     "profile": false, "no_cache": false}
    v}

    Every field but ["app"] is optional; ["engine"], ["cost_model"] and
    ["sim_jobs"] default from [PPAT_ENGINE], [PPAT_COST_MODEL] and
    [PPAT_SIM_JOBS] as on the command line (a malformed one is a named
    error); [PPAT_SHUFFLE] is read once, by {!create}. ["params"]
    overrides go through {!Ppat_apps.App.with_params}, so a derived size
    follows its primary and a broken app invariant is an error naming the
    parameter. The response carries the deterministic payload under ["answer"] (aggregate statistics, mapping
    decisions, the one result digest {!Ppat_harness.Runner.result_digest},
    and the buffers themselves when ["buffers"] is true),
    cache verdicts under ["cache"], and wall-clock phase timings under
    ["timing_ms"]. ["profile": true] additionally returns the
    per-kernel ppat-profile/4 record and the request's exact metrics
    delta (registry snapshot before/after, diffed) — profiled requests
    serialise on an internal lock so concurrent work never bleeds into
    the delta. Control operations [{"op": "ping" | "stats" | "flush" |
    "shutdown"}] manage the server, and [{"op": "batch", "requests":
    [...]}] fans a list of requests out over the shared worker-domain
    pool with per-domain output capture. *)

type t
(** Server state: device, search memo, plan cache, profiling lock. *)

val create :
  ?device:Ppat_gpu.Device.t ->
  ?memo_capacity:int ->
  ?plan_capacity:int ->
  unit ->
  t
(** Default device {!Ppat_gpu.Device.k20c}, 256 memoised searches, 64
    staged plans, lowering options from
    {!Ppat_codegen.Lower.effective_options} (may raise its [Bad_env]). *)

val plan_key :
  t -> strategy:Ppat_core.Strategy.t -> model:Ppat_core.Cost_model.kind ->
  engine:Ppat_kernel.Interp.engine -> Ppat_ir.Pat.prog ->
  (string * int) list -> string
(** The staged-plan key of a program under resolved parameters, covering
    the server's device and shuffle bit — exposed for tests. *)

val handle_line : t -> string -> string * bool
(** Answer one request line with one response line (no trailing newline).
    The boolean is [true] when the request asked the server to shut down.
    Never raises: malformed input yields an [{"ok": false}] response. *)

val handle_lines : t -> jobs:int -> string list -> string list * bool
(** Answer a batch, responses in request order. Plain requests fan out
    over {!Ppat_parallel.pool_run} on [jobs] domains with captured
    output; profiled requests and control operations run serially on the
    calling domain (profiled ones need the metrics registry quiet). *)

val cache_stats : t -> (string * Ppat_metrics.Lru.stats * int) list
(** [(cache, counters, live entries)] for the search memo and the plan
    cache — what the ["stats"] op reports. *)

val flush : t -> unit
(** Drop every memoised search and staged plan (the ["flush"] op). *)

val serve_stdin : ?jobs:int -> t -> unit
(** Read requests from stdin, write responses to stdout, until EOF or a
    ["shutdown"] op. Responses are flushed after every line so the
    server can sit behind a pipe. *)

val serve_socket : ?jobs:int -> t -> string -> unit
(** Listen on a Unix domain socket at the given path (unlinked first if
    it already exists, removed on exit) and serve connections one at a
    time, each with the same line protocol as stdin mode. A ["shutdown"]
    op ends the accept loop. *)
