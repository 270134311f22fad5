(* The benchmark's metric table: one row per metric, in the order the
   result line prints them. BENCHMARK.json at the repository root holds the
   same names, units, directions and bounds; `benchmark.exe --smoke`
   fails when the two disagree, so neither can drift alone. *)

type better = Lower | Higher

type tier =
  | End_to_end of float  (* regression bound, as a share of the median *)
  | Per_layer

type metric = { name : string; unit_ : string; better : better; tier : tier }

let e2e name unit_ better bound = { name; unit_; better; tier = End_to_end bound }
let layer name unit_ better = { name; unit_; better; tier = Per_layer }

let workloads =
  [
    ( "suite",
      "all 22 registry apps, each run validated against the CPU oracle: the \
       paper's evaluation path, where oracle and simulation do the work" );
    ( "sweep",
      "whole shape groups of 7 apps' mapping spaces through sweep_mapped on 2 \
       domains: simulation, lowering and staging with no oracle or search" );
    ( "serve-zipf",
      "Zipf s=1.1 over 96 served configs, more than the 64-plan cache holds: \
       mostly plan hits (replay) with some evictions and misses" );
    ( "serve-cold",
      "the same 96 configs sampled uniformly with no_cache on every request: \
       every request pays search, staging and simulation" );
  ]

(* Every workload reports every metric. A request is one blocking library
   call (a validated app run, a sweep_mapped call, a handle_line), a
   candidate one mapping simulated and checked, a pass one timed round.
   The timing bounds are as wide as the run-to-run drift of a shared
   2-core VM forces; README.md gives the measured spreads. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.10;
    e2e "pass_s" "s" Lower 0.25;
    e2e "app_geomean_ms" "ms" Lower 0.25;
    e2e "sim_minst_per_s" "Minst/s" Higher 0.25;
    e2e "cand_per_s" "cand/s" Higher 0.25;
    e2e "req_p50_ms" "ms" Lower 0.25;
    e2e "req_p99_ms" "ms" Lower 0.25;
    e2e "req_per_s" "req/s" Higher 0.25;
  ]

(* self times partition the traced wall clock: every traced second lands in
   exactly one of these eight layers *)
let self_time_layers =
  [
    "apps.gen.s";
    "core.search.s";
    "kernel.stage.s";
    "kernel.simulate.s";
    "cpu.oracle.s";
    "harness.check.s";
    "pipeline.other.s";
    "bench.self.s";
  ]

let per_layer =
  List.map (fun n -> layer n "s" Lower) self_time_layers
  @ [
      layer "kernel.simulate.warp_insts" "count" Higher;
      layer "kernel.simulate.minst_per_s" "Minst/s" Higher;
      layer "cpu.oracle.mops" "Mop" Higher;
      layer "cpu.oracle.alloc_mwords" "Mwords" Lower;
      layer "core.search.candidates" "count" Lower;
      layer "core.search.pruned_ratio" "ratio" Higher;
      layer "kernel.stage.vector_share" "ratio" Higher;
      layer "kernel.stage.fallbacks" "count" Lower;
      layer "harness.sweep.shapes_per_candidate" "ratio" Lower;
      layer "parallel.pool.tasks" "count" Lower;
      layer "parallel.pool.steals" "count" Lower;
      layer "serve.plan_hit_ratio" "ratio" Higher;
      layer "serve.memo_hit_ratio" "ratio" Higher;
      layer "serve.plan_evictions" "count" Lower;
      layer "gpu.memory.transactions" "count" Lower;
      layer "gpu.memory.l2_hit_rate" "ratio" Higher;
      layer "gpu.memory.smem_conflict_extra" "count" Lower;
      layer "gpu.memory.bytes_per_transaction" "B" Higher;
      layer "gpu.timing.simulated_us" "us" Lower;
      layer "trace.overhead_ratio" "ratio" Lower;
    ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun m -> m.name = name) all
let better_name = function Lower -> "lower" | Higher -> "higher"

(* ----- BENCHMARK.json, rendered from the table above ----- *)

let json ~command ~paths ~run_seconds =
  let module J = Ppat_profile.Jsonx in
  let metric m =
    J.Obj
      ([
         ("name", J.Str m.name);
         ("unit", J.Str m.unit_);
         ("better", J.Str (better_name m.better));
       ]
      @ match m.tier with End_to_end b -> [ ("bound", J.Float b) ] | Per_layer -> [])
  in
  J.Obj
    [
      ("command", J.List (List.map (fun s -> J.Str s) command));
      ("paths", J.List (List.map (fun s -> J.Str s) paths));
      ("run_seconds", J.Int run_seconds);
      ( "workloads",
        J.List
          (List.map
             (fun (name, why) -> J.Obj [ ("name", J.Str name); ("why", J.Str why) ])
             workloads) );
      ("end_to_end", J.List (List.map metric end_to_end));
      ("per_layer", J.List (List.map metric per_layer));
    ]

let read file =
  match In_channel.with_open_bin file In_channel.input_all with
  | s -> Ok s
  | exception Sys_error _ -> Error "cannot be read"

(* the workloads and metric rows of a BENCHMARK.json must equal this
   table's; its command, paths and run length are the file's own business *)
let check_file file =
  let module J = Ppat_profile.Jsonx in
  match Result.bind (read file) J.of_string with
  | Error e -> Error (file ^ ": " ^ e)
  | Ok j ->
    let get k = Option.value ~default:J.Null (J.member k j) in
    let mine =
      json ~command:[] ~paths:[]
        ~run_seconds:(Option.value ~default:0 (J.to_int (get "run_seconds")))
    in
    let differing =
      List.filter
        (fun k -> not (J.equal (get k) (Option.value ~default:J.Null (J.member k mine))))
        [ "workloads"; "end_to_end"; "per_layer" ]
    in
    if differing = [] then Ok ()
    else
      Error
        (Printf.sprintf "%s disagrees with the metric table on: %s" file
           (String.concat ", " differing))
