(* End-to-end integration: every application, every mapping strategy (and
   the allocation-optimisation modes and manual baselines), validated
   bit-for-bit (within fp tolerance) against the CPU reference interpreter.
   Sizes are kept small so the whole matrix stays fast. *)
module Strategy = Ppat_core.Strategy
module Runner = Ppat_harness.Runner
module Lower = Ppat_codegen.Lower
module MK = Ppat_apps.Manual_kernels
module A = Ppat_apps

let dev = Ppat_gpu.Device.k20c

let strategies =
  Strategy.[ Auto; One_d; Thread_block_thread; Warp_based ]

let check_app ?opts (app : A.App.t) strat =
  let data = A.App.input_data app in
  let cpu = Runner.run_cpu ~params:app.params app.prog data in
  let r = Runner.run_gpu ?opts ~params:app.params dev app.prog strat data in
  (match
     Runner.check ~eps:(Float.max app.eps 1e-5) ~unordered:app.unordered
       app.prog ~expected:cpu.cpu_data ~actual:r.data
   with
   | Ok () -> ()
   | Error e ->
     Alcotest.failf "%s under %s: %s" app.name (Strategy.name strat) e);
  Alcotest.(check bool)
    (app.name ^ " positive time")
    true (r.seconds > 0.)

let app_case name mk =
  Alcotest.test_case name `Slow (fun () ->
      let app = mk () in
      List.iter (check_app app) strategies)

let apps =
  [
    ("sumRows", fun () -> A.Sum_rows_cols.sum_rows ~r:128 ~c:64 ());
    ("sumCols", fun () -> A.Sum_rows_cols.sum_cols ~r:64 ~c:128 ());
    ("sumWeightedRows", fun () -> A.Sum_rows_cols.sum_weighted_rows ~r:64 ~c:64 ());
    ("sumWeightedCols", fun () -> A.Sum_rows_cols.sum_weighted_cols ~r:64 ~c:64 ());
    ("nearest neighbor", fun () -> A.Nearest_neighbor.app ~n:1000 ());
    ("mandelbrot R", fun () -> A.Mandelbrot.app ~h:32 ~w:48 ~max_iter:16 A.Mandelbrot.R);
    ("mandelbrot C", fun () -> A.Mandelbrot.app ~h:48 ~w:32 ~max_iter:16 A.Mandelbrot.C);
    ("hotspot R", fun () -> A.Hotspot.app ~n:48 ~steps:2 A.Hotspot.R);
    ("hotspot C", fun () -> A.Hotspot.app ~n:48 ~steps:2 A.Hotspot.C);
    ("pathfinder", fun () -> A.Pathfinder.app ~rows:6 ~cols:512 ());
    ("gaussian R", fun () -> A.Gaussian.app ~n:48 A.Gaussian.R);
    ("gaussian C", fun () -> A.Gaussian.app ~n:48 A.Gaussian.C);
    ("srad R", fun () -> A.Srad.app ~n:32 ~iters:2 A.Srad.R);
    ("srad C", fun () -> A.Srad.app ~n:32 ~iters:2 A.Srad.C);
    ("lud R", fun () -> A.Lud.app ~n:48 A.Lud.R);
    ("lud C", fun () -> A.Lud.app ~n:48 A.Lud.C);
    ("bfs", fun () -> A.Bfs.app ~nodes:512 ~avg_degree:4 ());
    ("pagerank", fun () -> A.Pagerank.app ~nodes:256 ~avg_degree:4 ~iters:2 ());
    ("qpscd", fun () -> A.Qpscd.app ~samples:128 ~dim:128 ());
    ("msm cluster", fun () -> A.Msm_cluster.app ~frames:128 ~centers:16 ~dims:16 ());
    ("naive bayes", fun () -> A.Naive_bayes.app ~docs:96 ~words:64 ());
    ("gemm", fun () -> A.Gemm.app ~m:40 ~n:40 ~k:24 ());
    ("fig8", fun () -> A.Experiments.fig8_app ~rows:48 ~cols:64 ());
  ]

let alloc_mode_cases =
  Alcotest.test_case "allocation modes" `Slow (fun () ->
      List.iter
        (fun mode ->
          let opts = { Lower.default_options with alloc_mode = mode } in
          check_app ~opts (A.Sum_rows_cols.sum_weighted_rows ~r:48 ~c:64 ())
            Strategy.Auto;
          check_app ~opts (A.Sum_rows_cols.sum_weighted_cols ~r:64 ~c:48 ())
            Strategy.Auto)
        [ Lower.Malloc; Lower.Prealloc; Lower.Prealloc_opt ])

let manual_case name mk run ?only () =
  Alcotest.test_case ("manual " ^ name) `Slow (fun () ->
      let app : A.App.t = mk () in
      let data = A.App.input_data app in
      let cpu = Runner.run_cpu ~params:app.params app.prog data in
      let m : MK.result = run dev app data in
      match
        Runner.check ~eps:1e-3 ?only app.prog ~expected:cpu.cpu_data
          ~actual:m.MK.data
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "manual %s: %s" name e)

let manual_cases =
  [
    manual_case "nearest neighbor"
      (fun () -> A.Nearest_neighbor.app ~n:500 ())
      MK.nearest_neighbor ();
    manual_case "gaussian"
      (fun () -> A.Gaussian.app ~n:48 A.Gaussian.R)
      MK.gaussian ();
    manual_case "hotspot"
      (fun () -> A.Hotspot.app ~n:48 ~steps:2 A.Hotspot.R)
      MK.hotspot ();
    manual_case "mandelbrot"
      (fun () -> A.Mandelbrot.app ~h:32 ~w:48 ~max_iter:16 A.Mandelbrot.R)
      MK.mandelbrot ();
    manual_case "srad"
      (fun () -> A.Srad.app ~n:32 ~iters:2 A.Srad.R)
      MK.srad ();
    manual_case "bfs"
      (fun () -> A.Bfs.app ~nodes:512 ~avg_degree:4 ())
      MK.bfs ();
    manual_case "pathfinder"
      (fun () -> A.Pathfinder.app ~rows:6 ~cols:512 ())
      (fun dev app data -> MK.pathfinder dev app data)
      ~only:[ "prev" ] ();
    manual_case "lud"
      (fun () -> A.Lud.app ~n:64 A.Lud.R)
      (fun dev app data -> MK.lud dev app data)
      ();
    manual_case "lud partial"
      (fun () -> A.Lud.app ~n:64 ~steps:32 A.Lud.R)
      (fun dev app data -> MK.lud dev app data)
      ();
  ]

let mapping_sweep_case =
  (* every unique hard-feasible mapping of a small sumRows must lower,
     simulate and match the oracle *)
  Alcotest.test_case "mapping-space sweep correctness" `Slow (fun () ->
      let app = A.Sum_rows_cols.sum_rows ~r:32 ~c:48 () in
      let data = A.App.input_data app in
      let cpu = Runner.run_cpu ~params:app.params app.prog data in
      let ts = Runner.target_space ~params:app.params dev app.prog in
      let results, _ =
        Runner.sweep_mapped ~jobs:2 ~params:app.params dev app.prog
          ~target_pid:ts.ts_target.pat.Ppat_ir.Pat.pid ~base:ts.ts_base
          ts.ts_candidates data
      in
      Alcotest.(check int) "unique mappings swept" 264 (Array.length results);
      Array.iter
        (fun (c : Runner.sweep_candidate) ->
          let fail e =
            Alcotest.failf "mapping %s: %s"
              (Ppat_core.Mapping.to_string c.sc_mapping)
              e
          in
          match c.sc_result with
          | Error e -> fail e
          | Ok r -> (
            match
              Runner.check ~eps:1e-9 app.prog ~expected:cpu.cpu_data
                ~actual:r.data
            with
            | Ok () -> ()
            | Error e -> fail e))
        results)

(* the ablation's shuffle row at a reduced size: both lowerings validate
   and warp shuffles beat the shared-memory trees on msmCluster's
   warp-fitting arg-min reductions *)
let shuffle_ablation_case =
  Alcotest.test_case "ablation: shuffle synthesis beats smem trees" `Quick
    (fun () ->
      match (A.Experiments.shuffle_row ~frames:256 dev).cells with
      | [ smem; shfl ] ->
        Alcotest.(check bool) "smem-tree validates" true smem.ok;
        Alcotest.(check bool) "shuffle validates" true shfl.ok;
        Alcotest.(check bool)
          (Printf.sprintf "shuffle faster (%.4g s vs %.4g s)" shfl.seconds
             smem.seconds)
          true
          (shfl.seconds < smem.seconds)
      | _ -> Alcotest.fail "the shuffle row has two cells")

let tests =
  List.map (fun (n, mk) -> app_case n mk) apps
  @ [ alloc_mode_cases; mapping_sweep_case; shuffle_ablation_case ]
  @ manual_cases
