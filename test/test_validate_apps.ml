(* Every bundled application must pass structural validation, and its
   top-level nests must be analysable (constraints collect without error,
   search finds a feasible mapping) on both devices. *)
module A = Ppat_apps

let apps () : (string * A.App.t) list =
  [
    ("sum_rows", A.Sum_rows_cols.sum_rows ());
    ("sum_cols", A.Sum_rows_cols.sum_cols ());
    ("sum_weighted_rows", A.Sum_rows_cols.sum_weighted_rows ());
    ("sum_weighted_cols", A.Sum_rows_cols.sum_weighted_cols ());
    ("nearest_neighbor", A.Nearest_neighbor.app ());
    ("gaussian_r", A.Gaussian.app A.Gaussian.R);
    ("gaussian_c", A.Gaussian.app A.Gaussian.C);
    ("bfs", A.Bfs.app ());
    ("hotspot_r", A.Hotspot.app A.Hotspot.R);
    ("hotspot_c", A.Hotspot.app A.Hotspot.C);
    ("mandelbrot_r", A.Mandelbrot.app A.Mandelbrot.R);
    ("mandelbrot_c", A.Mandelbrot.app A.Mandelbrot.C);
    ("srad_r", A.Srad.app A.Srad.R);
    ("srad_c", A.Srad.app A.Srad.C);
    ("pathfinder", A.Pathfinder.app ());
    ("lud_r", A.Lud.app A.Lud.R);
    ("lud_c", A.Lud.app A.Lud.C);
    ("pagerank", A.Pagerank.app ());
    ("qpscd", A.Qpscd.app ());
    ("msm_cluster", A.Msm_cluster.app ());
    ("naive_bayes", A.Naive_bayes.app ());
    ("gemm", A.Gemm.app ());
    ("fig8", A.Experiments.fig8_app ());
  ]

let test_structural () =
  List.iter
    (fun (name, (app : A.App.t)) ->
      match Ppat_ir.Pat.validate app.prog with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    (apps ())

let test_analysable () =
  List.iter
    (fun dev ->
      List.iter
        (fun (name, (app : A.App.t)) ->
          let ap =
            Ppat_harness.Runner.analysis_params app.prog app.params
          in
          List.iter
            (fun (n : Ppat_ir.Pat.nested) ->
              let c =
                Ppat_core.Collect.collect ~params:ap ?bind:n.bind dev
                  app.prog n.pat
              in
              let r = Ppat_core.Search.search dev c in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s feasible" name n.pat.Ppat_ir.Pat.label)
                true
                (Ppat_core.Mapping.threads_per_block r.mapping
                 <= dev.Ppat_gpu.Device.max_threads_per_block))
            (Ppat_ir.Pat.launches app.prog))
        (apps ()))
    [ Ppat_gpu.Device.k20c; Ppat_gpu.Device.c2050 ]

let test_workloads_match_declarations () =
  (* generated input data always matches the declared buffer shapes *)
  List.iter
    (fun (name, (app : A.App.t)) ->
      let params = A.App.resolved_params app in
      match Ppat_ir.Host.alloc_all app.prog params (A.App.input_data app) with
      | _ -> ()
      | exception Invalid_argument e -> Alcotest.failf "%s: %s" name e)
    (apps ())

let tests =
  [
    Alcotest.test_case "all apps validate" `Quick test_structural;
    Alcotest.test_case "all apps analysable on both devices" `Quick
      test_analysable;
    Alcotest.test_case "workloads match buffer shapes" `Quick
      test_workloads_match_declarations;
  ]
