(* Preallocated instruments for the execution engines and the parallel
   simulation path. Created once at module initialisation so the hot
   paths only ever touch a shard cell. *)

module M = Ppat_metrics.Metrics

let fallbacks = M.counter "engine.fallbacks"
(* launches the compiled engine handed back to the reference engine *)

let parallel_fallbacks = M.counter "engine.parallel_fallbacks"
(* launches that requested jobs > 1 but ran serially (global atomics) *)

let vector_stmts = M.counter "staging.vector_stmts"
(* straight-line statements staged node-major *)

let vector_ctl = M.counter "staging.vector_ctl"
(* control-flow constructs staged with node-major header fragments *)

let lane_replays = M.counter "engine.lane_replays"
(* warp statements the compiled engine re-ran lane by lane because a
   lane's write was visible to a later lane's load (or the node-major
   pass trapped) *)

let replayed_l2_lines = M.counter "pool.replayed_l2_lines"
(* transaction lines settled against the sliced L2 at chunk-merge time *)

let sim_chunks = M.counter "pool.sim_chunks"
(* block chunks dispatched by intra-launch parallel simulation *)

let chunk_blocks =
  M.histogram
    ~bounds:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]
    "pool.chunk_blocks"
(* blocks per dispatched simulation chunk (load-balance granularity) *)
