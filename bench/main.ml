(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Section VI) on the simulated K20c, and provides Bechamel
   microbenchmarks of the compiler pipeline itself (one Test.make per
   figure).

   Usage:
     bench/main.exe                 run every figure (paper order)
     bench/main.exe fig3 fig16      run a subset
     bench/main.exe --bechamel      run the Bechamel pipeline benchmarks
     bench/main.exe --json [FILE]   write a machine-readable perf trajectory
                                    (default BENCH_run.json) so successive
                                    PRs can be diffed
     bench/main.exe --compare BASELINE.json NEW.json
                                    diff two --json trajectories; exits
                                    non-zero on a >10% sim-wall regression
                                    or any simulator-statistic mismatch —
                                    every regressing app is reported before
                                    exiting. Serve-mode trajectories gate
                                    answer bit-identity, warm-vs-cold p50
                                    speedup (>=2x) and the hit path's
                                    search+staging share (<10%) instead
     bench/main.exe --serve N [--zipf S] [--no-cache] [--json FILE]
                                    served-traffic bench: N requests drawn
                                    Zipf(S)-distributed (default s=1.1) from
                                    a fixed config menu through the mapping
                                    service; reports p50/p99 cold and warm
                                    latency, hit rate and the warm speedup
                                    (schema ppat-bench/5). --no-cache sends
                                    every request with caches bypassed (the
                                    cold baseline artifact)
     bench/main.exe --sweep [--json FILE]
                                    batched-sweep trajectory: evaluate each
                                    app's whole candidate population through
                                    the stage-once-per-shape evaluator AND
                                    one-at-a-time, assert per-candidate
                                    digest identity, and record the staging
                                    share of the sweep wall (schema
                                    ppat-bench/6). --compare on two such
                                    trajectories gates digest identity,
                                    result drift and staging share < 20%
     bench/main.exe -j N            app-level worker domains
     bench/main.exe --sim-jobs N    intra-launch simulator domains per run
                                    (statistics are identical at any N)
     bench/main.exe --best-of N     timing repeats per app for --json (min
                                    wall kept; results are deterministic) *)

let dev = Ppat_gpu.Device.k20c

(* ----- Bechamel microbenchmarks: the compiler pipeline (analysis +
   lowering + simulation) at reduced sizes, one per figure ----- *)

let pipeline (app : Ppat_apps.App.t) strat () =
  let data = Ppat_apps.App.input_data app in
  ignore
    (Ppat_harness.Runner.run_gpu ~params:app.Ppat_apps.App.params dev
       app.Ppat_apps.App.prog strat data)

let search_only (app : Ppat_apps.App.t) () =
  let prog = app.Ppat_apps.App.prog in
  let n =
    match prog.Ppat_ir.Pat.steps with
    | Ppat_ir.Pat.Launch n :: _ -> n
    | _ -> assert false
  in
  let c =
    Ppat_core.Collect.collect
      ~params:(Ppat_harness.Runner.analysis_params prog app.params)
      ?bind:n.bind dev prog n.pat
  in
  ignore (Ppat_core.Search.search dev c)

let bechamel_tests () =
  let open Bechamel in
  let module A = Ppat_apps in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    (* the brute-force mapping search of Algorithm 1 in isolation *)
    t "search:sumRows" (search_only (A.Sum_rows_cols.sum_rows ~r:1024 ~c:256 ()));
    t "search:3-level" (search_only (A.Msm_cluster.app ~frames:256 ~centers:16 ~dims:16 ()));
    (* one end-to-end pipeline run per figure, at reduced scale *)
    t "fig3:sumCols" (pipeline (A.Sum_rows_cols.sum_cols ~r:512 ~c:64 ()) Ppat_core.Strategy.Auto);
    t "fig12:hotspot" (pipeline (A.Hotspot.app ~n:48 ~steps:1 A.Hotspot.R) Ppat_core.Strategy.Auto);
    t "fig13:mandelbrot-c"
      (pipeline (A.Mandelbrot.app ~h:32 ~w:32 ~max_iter:12 A.Mandelbrot.C)
         Ppat_core.Strategy.Warp_based);
    t "fig14:qpscd" (pipeline (A.Qpscd.app ~samples:64 ~dim:64 ()) Ppat_core.Strategy.Auto);
    t "fig16:malloc"
      (fun () ->
        let app = A.Sum_rows_cols.sum_weighted_rows ~r:48 ~c:32 () in
        let data = A.App.input_data app in
        let opts =
          { Ppat_codegen.Lower.default_options with alloc_mode = Ppat_codegen.Lower.Malloc }
        in
        ignore
          (Ppat_harness.Runner.run_gpu ~opts ~params:app.params dev app.prog
             Ppat_core.Strategy.Auto data));
    t "fig17:enumerate"
      (fun () ->
        let app = A.Mandelbrot.app ~h:16 ~w:256 ~max_iter:8 A.Mandelbrot.R in
        search_only app ());
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Format.printf "Bechamel pipeline microbenchmarks (wall-clock per run):@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Format.printf "  %-22s %10.3f ms/run@." name (ns /. 1e6)
          | _ -> Format.printf "  %-22s (no estimate)@." name)
        analyzed)
    (bechamel_tests ())

(* ----- machine-readable perf trajectory: a fixed suite covering every
   pipeline shape (flat, nested, split-combiner, dynamic, malloc mode),
   one JSON record per run, so the bench harness can diff simulated time
   and counters across PRs. Sizes are large enough that simulator time
   dominates analysis/lowering, so [sim_wall_seconds] measures the
   execution engine itself. ----- *)

let perf_suite () =
  let module A = Ppat_apps in
  let s = Ppat_core.Strategy.Auto in
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:4096 ~c:512 (), s, None);
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:2048 ~c:256 (), s, None);
    ("hotspot", A.Hotspot.app ~n:192 ~steps:2 A.Hotspot.R, s, None);
    ( "mandelbrot-c",
      A.Mandelbrot.app ~h:96 ~w:96 ~max_iter:64 A.Mandelbrot.C,
      Ppat_core.Strategy.Warp_based,
      None );
    ("qpscd", A.Qpscd.app ~samples:256 ~dim:256 (), s, None);
    ( "msmCluster",
      A.Msm_cluster.app ~frames:1024 ~centers:32 ~dims:32 (),
      s,
      None );
    ( "sumWeightedRows-malloc",
      A.Sum_rows_cols.sum_weighted_rows ~r:256 ~c:128 (),
      s,
      (* effective, not default: PPAT_SHUFFLE must compose with Malloc
         mode so the shuffle trajectory covers this pipeline shape too *)
      Some
        {
          (Ppat_codegen.Lower.effective_options ()) with
          alloc_mode = Ppat_codegen.Lower.Malloc;
        } );
  ]

(* app-level fan-out rides the same process-wide domain pool the
   simulator's intra-launch mode uses (lib/parallel) *)
let pool_run = Ppat_parallel.pool_run
let default_jobs = Ppat_parallel.default_jobs

let run_json ~jobs ~sim_jobs ~best_of file =
  let module J = Ppat_profile.Jsonx in
  let suite = Array.of_list (perf_suite ()) in
  let measure_app i =
    let name, (app : Ppat_apps.App.t), strat, opts = suite.(i) in
    let data = Ppat_apps.App.input_data app in
    (* every repeat produces bit-identical results and statistics; only
       the wall clock varies, so keep the fastest (least-disturbed)
       timing and the first run's record *)
    let measure () =
      let t0 = Unix.gettimeofday () in
      let r =
        Ppat_harness.Runner.run_gpu ?opts ~sim_jobs ~params:app.params dev
          app.prog strat data
      in
      let wall = Unix.gettimeofday () -. t0 in
      let sim_wall =
        List.fold_left
          (fun acc (k : Ppat_profile.Record.kernel) ->
            acc +. k.sim_wall_seconds)
          0. r.profile
      in
      (r, wall, sim_wall)
    in
    let r, wall, sim_wall =
      let rec best ((r0, w0, sw0) as acc) k =
        if k >= best_of then acc
        else
          let _, w, sw = measure () in
          best (r0, min w0 w, min sw0 sw) (k + 1)
      in
      best (measure ()) 1
    in
    ( name,
      wall,
      sim_wall,
      Format.asprintf "  %-24s %.4g s simulated, %d kernels, %.2f s wall (%.2f s in simulator)"
        name r.seconds r.kernels wall sim_wall,
      J.Obj
        [
          ("name", J.Str name);
          ("strategy", J.Str (Ppat_core.Strategy.name strat));
          ("simulated_seconds", J.number r.seconds);
          ("kernels", J.Int r.kernels);
          ("pipeline_wall_seconds", J.number wall);
          ("sim_wall_seconds", J.number sim_wall);
          ("stats", Ppat_profile.Record.json_of_stats r.stats);
          ( "decisions",
            J.List
              (List.map
                 (fun (label, (d : Ppat_core.Strategy.decision)) ->
                   J.Obj
                     [
                       ("pattern", J.Str label);
                       ( "mapping",
                         J.Str (Ppat_core.Mapping.to_string d.mapping) );
                       ("score", J.number d.score);
                       ("via", J.Str d.via);
                       ( "cost_model",
                         J.Str (Ppat_core.Cost_model.name d.model) );
                     ])
                 r.decisions) );
        ] )
  in
  let t_suite = Unix.gettimeofday () in
  let results = pool_run ~jobs (Array.length suite) measure_app in
  let suite_wall = Unix.gettimeofday () -. t_suite in
  Array.iter
    (fun (_, _, _, line, _) -> Format.printf "%s@." line)
    results;
  let total_wall =
    Array.fold_left (fun acc (_, w, _, _, _) -> acc +. w) 0. results
  in
  let total_sim_wall =
    Array.fold_left (fun acc (_, _, sw, _, _) -> acc +. sw) 0. results
  in
  Format.printf
    "  total: %.2f s pipeline wall (%.2f s in simulator), %.2f s suite wall \
     on %d worker(s) x %d sim job(s), engine=%s@."
    total_wall total_sim_wall suite_wall jobs sim_jobs
    (Ppat_kernel.Interp.engine_name (Ppat_kernel.Interp.default_engine ()));
  J.to_file file
    (J.Obj
       [
         ("schema", J.Str "ppat-bench/4");
         ( "cost_model",
           J.Str (Ppat_core.Cost_model.name (Ppat_core.Cost_model.default ())) );
         ("device", J.Str dev.Ppat_gpu.Device.dname);
         ( "engine",
           J.Str
             (Ppat_kernel.Interp.engine_name
                (Ppat_kernel.Interp.default_engine ())) );
         ("jobs", J.Int jobs);
         ("sim_jobs", J.Int sim_jobs);
         ("best_of", J.Int best_of);
         ("total_pipeline_wall_seconds", J.Float total_wall);
         ("total_sim_wall_seconds", J.Float total_sim_wall);
         ("suite_wall_seconds", J.Float suite_wall);
         ("results", J.List (Array.to_list (Array.map (fun (_, _, _, _, j) -> j) results)));
       ]);
  Format.printf "wrote perf trajectory to %s@." file

(* ----- --serve: served-traffic bench for the mapping service. N requests
   are drawn from a fixed config menu with a Zipfian repeat distribution
   (seeded, so the trace — and therefore the hit sequence — is
   deterministic) and pushed through an in-process server via the same
   line protocol `ppat serve` speaks. Each config's answers must be
   bit-identical across all its requests (cold or cached), which is the
   service's correctness contract; latencies are reported as p50/p99 for
   the cold (plan miss / bypass) and warm (plan hit) populations. ----- *)

(* modest shapes where the amortisable work (search, lowering, closure
   compilation) is a real share of a cold request; the analytical model
   makes the search deliberately expensive on the multi-level nests *)
let serve_configs =
  [
    ("gemm16-analytical", "gemm",
     [ ("M", 16); ("N", 16); ("K", 16) ], "auto", "analytical");
    ("gemm24-analytical", "gemm",
     [ ("M", 24); ("N", 24); ("K", 12) ], "auto", "analytical");
    ("msm64-analytical", "msm_cluster",
     [ ("T", 64); ("KC", 8); ("D", 8) ], "auto", "analytical");
    ("gemm8-hybrid", "gemm",
     [ ("M", 8); ("N", 8); ("K", 8) ], "auto", "hybrid");
    ("gemm32-analytical", "gemm",
     [ ("M", 32); ("N", 16); ("K", 16) ], "auto", "analytical");
    ("msm96-analytical", "msm_cluster",
     [ ("T", 96); ("KC", 8); ("D", 8) ], "auto", "analytical");
    ("gemm12-analytical", "gemm",
     [ ("M", 12); ("N", 12); ("K", 12) ], "auto", "analytical");
    ("sumRows-64x48", "sum_rows", [ ("R", 64); ("C", 48) ], "auto", "soft");
    ("sumCols-64x48", "sum_cols", [ ("R", 64); ("C", 48) ], "auto", "soft");
    ("sumCols-48x32-tbt", "sum_cols", [ ("R", 48); ("C", 32) ], "tbt", "soft");
  ]

(* inverse-CDF sampling of rank r with P(r) ∝ 1/r^s over the config menu *)
let zipf_sampler ~s k =
  let w = Array.init k (fun i -> 1.0 /. Float.pow (float (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let cum = Array.make k 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cum.(i) <- !acc)
    w;
  fun rng ->
    let u = Random.State.float rng 1.0 in
    let rec find i = if i >= k - 1 || u <= cum.(i) then i else find (i + 1) in
    find 0

(* nan on an empty sample — callers must guard (the exporters go through
   [Jsonx.number], which turns it into an explicit null) *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

let run_serve ~n ~zipf ~no_cache file =
  let module J = Ppat_profile.Jsonx in
  let server = Ppat_serve.Serve.create () in
  let configs = Array.of_list serve_configs in
  let k = Array.length configs in
  let sample = zipf_sampler ~s:zipf k in
  let rng = Random.State.make [| 42 |] in
  let request_line id (name, app, params, strategy, model) =
    ignore name;
    J.to_string ~minify:true
      (J.Obj
         [
           ("id", J.Int id);
           ("app", J.Str app);
           ("params", J.Obj (List.map (fun (p, v) -> (p, J.Int v)) params));
           ("strategy", J.Str strategy);
           ("cost_model", J.Str model);
           ("no_cache", J.Bool no_cache);
         ])
  in
  let str_at path j =
    let rec go j = function
      | [] -> J.to_str j
      | f :: rest -> Option.bind (J.member f j) (fun v -> go v rest)
    in
    go j path
  in
  let num_at path j =
    let rec go j = function
      | [] -> J.to_float j
      | f :: rest -> Option.bind (J.member f j) (fun v -> go v rest)
    in
    go j path
  in
  let digests = Array.make k None in
  let counts = Array.make k 0 in
  let cold_ms = Array.make k nan and warm_ms = Array.make k [] in
  let cold = ref [] and warm = ref [] and hit_share = ref [] in
  let mismatches = ref 0 in
  for i = 0 to n - 1 do
    let ci = sample rng in
    let line = request_line i configs.(ci) in
    let t0 = Unix.gettimeofday () in
    let resp, _stop = Ppat_serve.Serve.handle_line server line in
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let j =
      match J.of_string resp with
      | Ok j -> j
      | Error e ->
        failwith (Printf.sprintf "serve bench: unparseable response: %s" e)
    in
    (match J.member "ok" j with
     | Some (J.Bool true) -> ()
     | _ -> failwith (Printf.sprintf "serve bench: request failed: %s" resp));
    let digest = Option.value ~default:"?" (str_at [ "answer"; "digest" ] j) in
    (match digests.(ci) with
     | None -> digests.(ci) <- Some digest
     | Some d when d = digest -> ()
     | Some d ->
       incr mismatches;
       Format.eprintf "serve bench: %s answered %s then %s@."
         (let name, _, _, _, _ = configs.(ci) in name)
         d digest);
    counts.(ci) <- counts.(ci) + 1;
    let plan = Option.value ~default:"?" (str_at [ "cache"; "plan" ] j) in
    if plan = "hit" then begin
      warm := wall_ms :: !warm;
      warm_ms.(ci) <- wall_ms :: warm_ms.(ci);
      let total = Option.value ~default:nan (num_at [ "timing_ms"; "total" ] j)
      and search =
        Option.value ~default:nan (num_at [ "timing_ms"; "search" ] j)
      and stage =
        Option.value ~default:nan (num_at [ "timing_ms"; "stage" ] j)
      in
      if total > 0. then hit_share := ((search +. stage) /. total) :: !hit_share
    end
    else begin
      cold := wall_ms :: !cold;
      if Float.is_nan cold_ms.(ci) then cold_ms.(ci) <- wall_ms
    end
  done;
  let cold = List.rev !cold
  and warm = List.rev !warm
  and hit_share = List.rev !hit_share in
  let pcts l =
    let a = Array.of_list l in
    Array.sort compare a;
    (Array.length a, percentile a 50., percentile a 99.)
  in
  let n_cold, cold_p50, cold_p99 = pcts cold in
  let n_warm, warm_p50, warm_p99 = pcts warm in
  let _, all_p50, all_p99 = pcts (cold @ warm) in
  let hit_rate = float n_warm /. float n in
  let share =
    match hit_share with
    | [] -> nan
    | l -> List.fold_left ( +. ) 0. l /. float (List.length l)
  in
  let speedup = cold_p50 /. warm_p50 in
  let answers_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun i ->
                 let name, _, _, _, _ = configs.(i) in
                 name ^ "=" ^ Option.value ~default:"-" digests.(i))
               (List.init k Fun.id))))
  in
  Format.printf
    "served %d requests over %d configs (zipf s=%.2f%s): %d cold, %d warm \
     (hit rate %.2f)@."
    n k zipf
    (if no_cache then ", caches bypassed" else "")
    n_cold n_warm hit_rate;
  Format.printf "  all : p50 %8.2f ms   p99 %8.2f ms@." all_p50 all_p99;
  Format.printf "  cold: p50 %8.2f ms   p99 %8.2f ms@." cold_p50 cold_p99;
  if n_warm > 0 then begin
    Format.printf "  warm: p50 %8.2f ms   p99 %8.2f ms@." warm_p50 warm_p99;
    Format.printf
      "  warm-vs-cold p50 speedup %.1fx; search+staging share of hit wall \
       %.2f%%@."
      speedup (100. *. share)
  end;
  if !mismatches > 0 then begin
    Format.printf
      "serve bench: %d answer mismatch(es) — cache hits are NOT bit-identical@."
      !mismatches;
    exit 1
  end;
  (match file with
   | None -> ()
   | Some file ->
     let cfg_json =
       List.map
         (fun i ->
           let name, app, _, strategy, model = configs.(i) in
           let wp =
             let a = Array.of_list warm_ms.(i) in
             Array.sort compare a;
             percentile a 50.
           in
           J.Obj
             ([
                ("name", J.Str name);
                ("app", J.Str app);
                ("strategy", J.Str strategy);
                ("cost_model", J.Str model);
                ("requests", J.Int counts.(i));
                ("digest", J.Str (Option.value ~default:"-" digests.(i)));
              ]
             @ (if Float.is_nan cold_ms.(i) then []
                else [ ("cold_ms", J.Float cold_ms.(i)) ])
             @ if Float.is_nan wp then [] else [ ("warm_p50_ms", J.Float wp) ]))
         (List.init k Fun.id)
     in
     (* [J.number], not [J.Float]: percentiles of an empty population are
        nan and the speedup/share ratios can degenerate to nan/inf; they
        must reach the file as explicit nulls, never as invalid tokens *)
     J.to_file file
       (J.Obj
          ([
            ("schema", J.Str "ppat-bench/5");
            ("mode", J.Str "serve");
            ("device", J.Str dev.Ppat_gpu.Device.dname);
            ("zipf", J.Float zipf);
            ("requests", J.Int n);
            ("no_cache", J.Bool no_cache);
            ("cold_count", J.Int n_cold);
            ("warm_count", J.Int n_warm);
            ("hit_rate", J.number hit_rate);
            ("p50_ms", J.number all_p50);
            ("p99_ms", J.number all_p99);
            ("cold_p50_ms", J.number cold_p50);
            ("cold_p99_ms", J.number cold_p99);
          ]
          @ (if n_warm = 0 then []
             else
               [
                 ("warm_p50_ms", J.number warm_p50);
                 ("warm_p99_ms", J.number warm_p99);
                 ("warm_vs_cold_p50_speedup", J.number speedup);
                 ("hit_search_stage_share", J.number share);
               ])
          @ [
              ("answers_digest", J.Str answers_digest);
              ("configs", J.List cfg_json);
            ]));
     Format.printf "wrote served-traffic trajectory to %s@." file)

(* ----- --sweep: trajectory for the batched mapping-space evaluator.
   Shapes small enough that the whole candidate population is evaluated
   twice — once through the stage-once-per-shape batched path and once
   one-at-a-time — so every per-candidate digest can be compared, which is
   the evaluator's bit-identity contract. The JSON records the digests,
   the shape statistics and the staging share of the sweep wall; the
   --compare gate holds the share under 20% and the digests identical to
   the committed baseline. ----- *)

let sweep_suite () =
  let module A = Ppat_apps in
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:256 ~c:64 ());
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:256 ~c:64 ());
    ("hotspot", A.Hotspot.app ~n:48 ~steps:1 A.Hotspot.R);
  ]

(* the target pattern (richest hard-feasible space), its deduped candidate
   mappings, and soft-auto base mappings for the other patterns — the same
   setup `ppat sweep` uses *)
let sweep_space (app : Ppat_apps.App.t) =
  let ap = Ppat_harness.Runner.analysis_params app.prog app.params in
  let pats = ref [] in
  let rec step = function
    | Ppat_ir.Pat.Launch n ->
      if
        not
          (List.exists
             (fun (pid, _) -> pid = n.pat.Ppat_ir.Pat.pid)
             !pats)
      then begin
        let c =
          Ppat_core.Collect.collect ~params:ap ?bind:n.Ppat_ir.Pat.bind dev
            app.prog n.Ppat_ir.Pat.pat
        in
        pats := (n.pat.Ppat_ir.Pat.pid, c) :: !pats
      end
    | Ppat_ir.Pat.Host_loop { body; _ } | Ppat_ir.Pat.While_flag { body; _ }
      ->
      List.iter step body
    | Ppat_ir.Pat.Swap _ -> ()
  in
  List.iter step app.prog.Ppat_ir.Pat.steps;
  let pats = List.rev !pats in
  let base =
    List.map
      (fun (pid, c) ->
        ( pid,
          (Ppat_core.Strategy.decide ~model:Ppat_core.Cost_model.Soft dev c
             Ppat_core.Strategy.Auto)
            .Ppat_core.Strategy.mapping ))
      pats
  in
  let tpid, cands =
    List.fold_left
      (fun (bp, bm) (pid, c) ->
        let ms =
          List.map fst
            (Ppat_core.Search.enumerate ~model:Ppat_core.Cost_model.Soft dev c)
        in
        if List.length ms > List.length bm then (pid, ms) else (bp, bm))
      (-1, []) pats
  in
  let seen = Hashtbl.create 64 in
  let cands =
    List.filter
      (fun (m : Ppat_core.Mapping.t) ->
        let k = Digest.string (Marshal.to_string m []) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      cands
  in
  (base, tpid, Array.of_list cands)

(* one app's batched sweep over its whole candidate population, checked
   candidate by candidate against one-at-a-time runs; prints the app's
   summary and returns its trajectory record and whether every digest
   matched *)
let sweep_app ~jobs ~sim_jobs (name, (app : Ppat_apps.App.t)) =
  let module J = Ppat_profile.Jsonx in
  let data = Ppat_apps.App.input_data app in
  let base, tpid, cands = sweep_space app in
  let n = Array.length cands in
  let t0 = Unix.gettimeofday () in
  let results, stats =
    Ppat_harness.Runner.sweep_mapped ~sim_jobs ~jobs
      ~params:app.Ppat_apps.App.params dev app.prog ~target_pid:tpid ~base
      cands data
  in
  let batched_wall = Unix.gettimeofday () -. t0 in
  (* the same population one-at-a-time (same pool width, so the wall
     clocks compare staging strategies, not parallelism) *)
  let t1 = Unix.gettimeofday () in
  let unbatched =
    pool_run ~jobs n (fun i ->
        let mapping_of pid =
          if pid = tpid then cands.(i) else List.assoc pid base
        in
        match
          Ppat_harness.Runner.run_gpu_mapped ~sim_jobs ~params:app.params dev
            app.prog mapping_of data
        with
        | r -> Some (Ppat_harness.Runner.result_digest r)
        | exception Ppat_codegen.Lower.Unsupported _ -> None
        | exception Failure _ -> None)
  in
  let unbatched_wall = Unix.gettimeofday () -. t1 in
  let digests =
    Array.map
      (fun (c : Ppat_harness.Runner.sweep_candidate) -> c.sc_digest)
      results
  in
  let mismatches = ref 0 in
  Array.iteri
    (fun i d ->
      match (d, unbatched.(i)) with
      | Some a, Some b when String.equal a b -> ()
      | None, None -> ()
      | _ -> incr mismatches)
    digests;
  let digests_match = !mismatches = 0 in
  let share =
    if stats.Ppat_harness.Runner.sw_wall_seconds > 0. then
      stats.sw_stage_seconds /. stats.sw_wall_seconds
    else 0.
  in
  let sweep_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (Array.to_list (Array.map (Option.value ~default:"-") digests))))
  in
  Format.printf
    "  %-12s %4d candidates, %3d shapes (%d staged, %d replayed, %d \
     failed): digests %s@."
    name n stats.sw_shapes stats.sw_staged stats.sw_replayed stats.sw_failed
    (if digests_match then "identical"
     else Printf.sprintf "%d MISMATCH(ES)" !mismatches);
  Format.printf
    "  %-12s staging %.3fs of %.2fs sweep wall (share %.1f%%); \
     one-at-a-time %.2fs (%.2fx)@."
    "" stats.sw_stage_seconds stats.sw_wall_seconds (100. *. share)
    unbatched_wall
    (if batched_wall > 0. then unbatched_wall /. batched_wall else 0.);
  ( J.Obj
      [
        ("name", J.Str name);
        ("candidates", J.Int n);
        ("shapes", J.Int stats.sw_shapes);
        ("staged", J.Int stats.sw_staged);
        ("replayed", J.Int stats.sw_replayed);
        ("failed", J.Int stats.sw_failed);
        ("digests_match", J.Bool digests_match);
        ("staging_share", J.number share);
        ("stage_seconds", J.number stats.sw_stage_seconds);
        ("batched_wall_seconds", J.number batched_wall);
        ("unbatched_wall_seconds", J.number unbatched_wall);
        ("sweep_digest", J.Str sweep_digest);
      ],
    digests_match )

let run_sweep ~jobs ~sim_jobs file =
  let module J = Ppat_profile.Jsonx in
  Format.printf "batched-sweep trajectory on simulated %s:@."
    dev.Ppat_gpu.Device.dname;
  let outs = List.map (sweep_app ~jobs ~sim_jobs) (sweep_suite ()) in
  (match file with
   | None -> ()
   | Some file ->
     J.to_file file
       (J.Obj
          [
            ("schema", J.Str "ppat-bench/6");
            ("mode", J.Str "sweep");
            ("device", J.Str dev.Ppat_gpu.Device.dname);
            ("jobs", J.Int jobs);
            ("sim_jobs", J.Int sim_jobs);
            ("apps", J.List (List.map fst outs));
          ]);
     Format.printf "wrote sweep trajectory to %s@." file);
  if not (List.for_all snd outs) then begin
    Format.printf
      "sweep bench: batched results are NOT bit-identical to one-at-a-time@.";
    exit 1
  end

(* ----- --compare: the bench regression gate. Diffs two --json
   trajectories app by app. Simulator statistics are deterministic, so any
   difference there is a real behaviour change and fails the gate
   outright; wall clock is noisy, so only a regression that is both >10%
   and >50 ms of per-app simulator wall time fails. ----- *)

let regression_pct = 10.0
let regression_abs_floor = 0.05 (* seconds of per-app sim wall *)

let load_bench file =
  let module J = Ppat_profile.Jsonx in
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with
  | Ok j -> j
  | Error e ->
    Format.eprintf "%s: %s@." file e;
    exit 2

(* every failure is recorded with the app/config it concerns and the gate
   keeps going, so one CI log shows the full regression picture; the exit
   summary enumerates every failing app *)
let gate_exit what failed total =
  if !failed = [] then begin
    Format.printf "bench gate: OK (%d %s, no regressions)@." total what;
    exit 0
  end
  else begin
    let names = List.sort_uniq compare (List.rev !failed) in
    Format.printf "bench gate: %d failure(s) across %d %s: %s@."
      (List.length !failed) (List.length names) what
      (String.concat ", " names);
    exit 1
  end

(* serve-mode trajectories (schema ppat-bench/5): the baseline is normally
   the cache-bypassed run and the candidate the cached run of the same
   trace, so the gate asserts the serving contract — per-config answers
   bit-identical to cold, warm p50 at least 2x faster than the cold p50,
   and the hit path dominated by simulation, not search/staging *)
let compare_serve base_file new_file base next =
  let module J = Ppat_profile.Jsonx in
  let failed = ref [] in
  let fail name fmt =
    Format.kasprintf
      (fun s ->
        failed := name :: !failed;
        Format.printf "  FAIL %s@." s)
      fmt
  in
  let num key j =
    Option.value ~default:nan (Option.bind (J.member key j) J.to_float)
  in
  let str key j =
    Option.value ~default:"?" (Option.bind (J.member key j) J.to_str)
  in
  let configs j =
    match Option.bind (J.member "configs" j) J.to_list with
    | None -> []
    | Some l ->
      List.filter_map
        (fun c ->
          Option.map
            (fun n -> (n, str "digest" c))
            (Option.bind (J.member "name" c) J.to_str))
        l
  in
  Format.printf "comparing served-traffic %s (baseline) vs %s:@." base_file
    new_file;
  let bc = configs base and nc = configs next in
  List.iter
    (fun (name, bd) ->
      match List.assoc_opt name nc with
      | None -> fail name "%s: config present in baseline only" name
      | Some nd when nd <> bd ->
        fail name "%s: answers differ from baseline (%s vs %s)" name bd nd
      | Some _ -> ())
    bc;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name bc) then
        Format.printf "  note: config %s is new (not in baseline)@." name)
    nc;
  let bdig = str "answers_digest" base and ndig = str "answers_digest" next in
  Format.printf "  answers digest: %s vs %s (%s)@." bdig ndig
    (if bdig = ndig then "identical" else "MISMATCH");
  if bdig <> ndig then fail "answers_digest" "served answers drifted from baseline";
  let cold_p50 = num "cold_p50_ms" base in
  let warm_p50 = num "warm_p50_ms" next in
  let warm_count =
    Option.value ~default:0 (Option.bind (J.member "warm_count" next) J.to_int)
  in
  if warm_count = 0 then
    Format.printf
      "  note: candidate run has no warm requests (cache bypassed?); skipping \
       latency gates@."
  else begin
    Format.printf
      "  cold p50 %.2f ms (baseline) vs warm p50 %.2f ms: %.1fx@." cold_p50
      warm_p50
      (cold_p50 /. warm_p50);
    if not (cold_p50 >= 2.0 *. warm_p50) then
      fail "warm-speedup" "warm p50 %.2f ms is not 2x faster than cold p50 %.2f ms"
        warm_p50 cold_p50;
    let share = num "hit_search_stage_share" next in
    Format.printf "  search+staging share of hit wall: %.2f%%@." (100. *. share);
    if not (share < 0.10) then
      fail "hit-share" "search+staging is %.1f%% of the hit path (gate: <10%%)"
        (100. *. share)
  end;
  gate_exit "serve configs" failed (List.length bc)

(* sweep-mode trajectories (schema ppat-bench/6): per app, the candidate
   the batched evaluator must agree with one-at-a-time bit for bit, the
   per-candidate digests must match the committed baseline (any drift is a
   real behaviour change), and staging must stay a small share of the
   sweep wall — the amortisation the batching exists to buy *)
let compare_sweep base_file new_file base next =
  let module J = Ppat_profile.Jsonx in
  let failed = ref [] in
  let fail name fmt =
    Format.kasprintf
      (fun s ->
        failed := name :: !failed;
        Format.printf "  FAIL %s@." s)
      fmt
  in
  let apps j =
    match Option.bind (J.member "apps" j) J.to_list with
    | None -> []
    | Some l ->
      List.filter_map
        (fun a ->
          Option.map (fun n -> (n, a)) (Option.bind (J.member "name" a) J.to_str))
        l
  in
  let str key j =
    Option.value ~default:"?" (Option.bind (J.member key j) J.to_str)
  in
  let num key j =
    Option.value ~default:nan (Option.bind (J.member key j) J.to_float)
  in
  let bool_ key j =
    match J.member key j with Some (J.Bool b) -> b | _ -> false
  in
  Format.printf "comparing sweep trajectories %s (baseline) vs %s:@."
    base_file new_file;
  let bapps = apps base and napps = apps next in
  List.iter
    (fun (name, ba) ->
      match List.assoc_opt name napps with
      | None -> fail name "%s: present in baseline only" name
      | Some na ->
        let bd = str "sweep_digest" ba and nd = str "sweep_digest" na in
        let share = num "staging_share" na in
        Format.printf
          "  %-12s digests vs baseline: %s; batched-vs-unbatched: %s; \
           staging share %.1f%%@."
          name
          (if bd = nd then "identical" else "MISMATCH")
          (if bool_ "digests_match" na then "identical" else "MISMATCH")
          (100. *. share);
        if bd <> nd then
          fail name "%s: per-candidate results drifted from baseline" name;
        if not (bool_ "digests_match" na) then
          fail name "%s: batched results differ from one-at-a-time" name;
        if not (share < 0.20) then
          fail name "%s: staging is %.1f%% of the sweep wall (gate: <20%%)"
            name (100. *. share))
    bapps;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name bapps) then
        Format.printf "  note: %s is new (not in baseline)@." name)
    napps;
  gate_exit "sweep apps" failed (List.length bapps)

let compare_bench base_file new_file =
  let module J = Ppat_profile.Jsonx in
  let base = load_bench base_file and next = load_bench new_file in
  let str key j =
    Option.value ~default:"?" (Option.bind (J.member key j) J.to_str)
  in
  let mode j = Option.bind (J.member "mode" j) J.to_str in
  (match (mode base, mode next) with
   | Some "serve", Some "serve" -> compare_serve base_file new_file base next
   | Some "sweep", Some "sweep" -> compare_sweep base_file new_file base next
   | Some "serve", _ | _, Some "serve" | Some "sweep", _ | _, Some "sweep" ->
     Format.eprintf
       "cannot compare trajectories of different modes@.";
     exit 2
   | _ -> ());
  let results j =
    match Option.bind (J.member "results" j) J.to_list with
    | None ->
      Format.eprintf "not a ppat-bench trajectory (no \"results\" list)@.";
      exit 2
    | Some l ->
      List.filter_map
        (fun r ->
          Option.map (fun n -> (n, r)) (Option.bind (J.member "name" r) J.to_str))
        l
  in
  List.iter
    (fun key ->
      let b = str key base and n = str key next in
      if b <> n then
        Format.printf "note: %s differs (%s vs %s); deltas may not be comparable@."
          key b n)
    [ "schema"; "engine"; "cost_model"; "device"; "sim_jobs" ];
  let brs = results base and nrs = results next in
  let failed = ref [] in
  let fail name fmt =
    Format.kasprintf
      (fun s ->
        failed := name :: !failed;
        Format.printf "  FAIL %s@." s)
      fmt
  in
  Format.printf "comparing %s (baseline) vs %s:@." base_file new_file;
  Format.printf "  %-24s %12s %12s %8s  %s@." "app" "base sim-w" "new sim-w"
    "delta" "stats";
  List.iter
    (fun (name, br) ->
      match List.assoc_opt name nrs with
      | None -> fail name "%s: present in baseline only" name
      | Some nr ->
        let f key j =
          Option.value ~default:nan (Option.bind (J.member key j) J.to_float)
        in
        let bw = f "sim_wall_seconds" br and nw = f "sim_wall_seconds" nr in
        let pct = if bw > 0. then 100. *. (nw -. bw) /. bw else 0. in
        let bstats = J.member "stats" br and nstats = J.member "stats" nr in
        let stats_ok =
          match (bstats, nstats) with
          | Some b, Some n -> J.equal b n
          | _ -> false
        in
        Format.printf "  %-24s %10.3f s %10.3f s %+7.1f%%  %s@." name bw nw
          pct
          (if stats_ok then "identical" else "MISMATCH");
        if not stats_ok then begin
          fail name "%s: simulator statistics differ" name;
          match (bstats, nstats) with
          | Some (J.Obj b), Some (J.Obj n) ->
            List.iter
              (fun (k, bv) ->
                match List.assoc_opt k n with
                | Some nv when J.equal bv nv -> ()
                | Some nv ->
                  Format.printf "       %s: %s -> %s@." k
                    (J.to_string ~minify:true bv)
                    (J.to_string ~minify:true nv)
                | None -> Format.printf "       %s: missing in new@." k)
              b
          | _ -> ()
        end;
        if pct > regression_pct && nw -. bw > regression_abs_floor then
          fail name "%s: sim wall regressed %.1f%% (%.3f s -> %.3f s)" name
            pct bw nw)
    brs;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name brs) then
        Format.printf "  note: %s is new (not in baseline)@." name)
    nrs;
  gate_exit "apps" failed (List.length brs)

(* ----- entry point ----- *)

let with_captured = Ppat_parallel.with_captured

let run_figures ~jobs names all =
  let tasks = Array.of_list names in
  let outputs =
    pool_run ~jobs (Array.length tasks) (fun i ->
        let name = tasks.(i) in
        match List.assoc_opt name all with
        | Some f ->
          let t0 = Unix.gettimeofday () in
          let out = with_captured f in
          Printf.sprintf "%s  (%s regenerated in %.1f s of simulation)\n" out
            name
            (Unix.gettimeofday () -. t0)
        | None ->
          Printf.sprintf "unknown figure %S (have: %s)\n" name
            (String.concat ", " (List.map fst all)))
  in
  Array.iter print_string outputs

(* a malformed flag value is a usage error: one line naming the flag and
   the accepted values, exit 2 — never an uncaught exception *)
let usage_error msg =
  prerr_endline ("ppat: " ^ msg);
  exit 2

let pos_int flag n =
  match Ppat_gpu.Tuning.parse_pos_int ~name:flag n with
  | Ok v -> v
  | Error e -> usage_error e

(* pull [-j N] (app-level workers; default one per core),
   [--sim-jobs N] (intra-launch simulator domains; default $PPAT_SIM_JOBS
   or 1), [--best-of N] (timing repeats per app for --json; min wall is
   kept, results are deterministic) and the --serve / --sweep mode flags
   out of the argument list *)
type opts = {
  o_jobs : int;
  o_sim_jobs : int;
  o_best_of : int;
  o_serve : int option;
  o_zipf : float;
  o_no_cache : bool;
  o_sweep : bool;
  o_args : string list;
}

let parse_jobs args =
  let jobs = ref (default_jobs ()) in
  let sim_jobs = ref (Ppat_kernel.Interp.default_jobs ()) in
  let best_of = ref 1 in
  let serve = ref None in
  let zipf = ref 1.1 in
  let no_cache = ref false in
  let sweep = ref false in
  let rec go acc = function
    | "-j" :: n :: rest ->
      jobs := pos_int "-j" n;
      go acc rest
    | "--sim-jobs" :: n :: rest ->
      sim_jobs := min (pos_int "--sim-jobs" n) Ppat_parallel.max_jobs;
      go acc rest
    | "--best-of" :: n :: rest ->
      best_of := pos_int "--best-of" n;
      go acc rest
    | "--serve" :: n :: rest ->
      serve := Some (pos_int "--serve" n);
      go acc rest
    | "--zipf" :: s :: rest ->
      (match float_of_string_opt s with
       | Some z when Float.is_finite z && z >= 0. -> zipf := z
       | _ ->
         usage_error
           (Printf.sprintf "--zipf=%S is not a non-negative number" s));
      go acc rest
    | "--no-cache" :: rest ->
      no_cache := true;
      go acc rest
    | "--sweep" :: rest ->
      sweep := true;
      go acc rest
    | a :: rest -> go (a :: acc) rest
    | [] ->
      {
        o_jobs = !jobs;
        o_sim_jobs = !sim_jobs;
        o_best_of = !best_of;
        o_serve = !serve;
        o_zipf = !zipf;
        o_no_cache = !no_cache;
        o_sweep = !sweep;
        o_args = List.rev acc;
      }
  in
  go [] args

let () =
  let o = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  let args = o.o_args in
  (match args with
   | "--compare" :: base :: next :: _ -> compare_bench base next
   | "--compare" :: _ ->
     Format.eprintf "--compare expects BASELINE.json NEW.json@.";
     exit 2
   | _ -> ());
  let json_file () =
    match args with
    | "--json" :: f :: _ when Filename.check_suffix f ".json" -> Some f
    | _ -> None
  in
  if o.o_sweep then begin
    run_sweep ~jobs:o.o_jobs ~sim_jobs:o.o_sim_jobs (json_file ());
    exit 0
  end;
  match o.o_serve with
  | Some n ->
    run_serve ~n ~zipf:o.o_zipf ~no_cache:o.o_no_cache (json_file ())
  | None ->
  if List.mem "--json" args then begin
    let file = Option.value ~default:"BENCH_run.json" (json_file ()) in
    Format.printf "perf-trajectory suite on simulated %s:@."
      dev.Ppat_gpu.Device.dname;
    run_json ~jobs:o.o_jobs ~sim_jobs:o.o_sim_jobs ~best_of:o.o_best_of file
  end
  else if List.mem "--bechamel" args then run_bechamel ()
  else begin
    let all = Ppat_apps.Experiments.all dev in
    let selected =
      match List.filter (fun a -> a <> "--bechamel") args with
      | [] -> List.map fst all
      | names -> names
    in
    Format.printf
      "Reproducing the evaluation of 'Locality-Aware Mapping of Nested \
       Parallel Patterns on GPUs' (MICRO 2014)@.on a simulated %s@."
      dev.Ppat_gpu.Device.dname;
    Format.print_flush ();
    run_figures ~jobs:o.o_jobs selected all
  end
