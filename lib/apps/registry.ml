(* The bundled application registry, shared by the `ppat` CLI, perfbench
   and the mapping service. Constructors are thunked: some apps
   generate sizable synthetic workloads at build time. *)

let all : (string * (unit -> App.t)) list =
  [
    ("sum_rows", fun () -> Sum_rows_cols.sum_rows ());
    ("sum_cols", fun () -> Sum_rows_cols.sum_cols ());
    ("sum_weighted_rows", fun () -> Sum_rows_cols.sum_weighted_rows ());
    ("sum_weighted_cols", fun () -> Sum_rows_cols.sum_weighted_cols ());
    ("nearest_neighbor", fun () -> Nearest_neighbor.app ());
    ("gaussian", fun () -> Gaussian.app ~n:128 Gaussian.R);
    ("gaussian_c", fun () -> Gaussian.app ~n:128 Gaussian.C);
    ("bfs", fun () -> Bfs.app ~nodes:8192 ~avg_degree:8 ());
    ("hotspot", fun () -> Hotspot.app ~n:128 ~steps:4 Hotspot.R);
    ("hotspot_c", fun () -> Hotspot.app ~n:128 ~steps:4 Hotspot.C);
    ( "mandelbrot",
      fun () -> Mandelbrot.app ~h:128 ~w:128 ~max_iter:32 Mandelbrot.R );
    ( "mandelbrot_c",
      fun () -> Mandelbrot.app ~h:128 ~w:128 ~max_iter:32 Mandelbrot.C );
    ("srad", fun () -> Srad.app ~n:96 ~iters:2 Srad.R);
    ("srad_c", fun () -> Srad.app ~n:96 ~iters:2 Srad.C);
    ("pathfinder", fun () -> Pathfinder.app ~rows:24 ~cols:8192 ());
    ("lud", fun () -> Lud.app ~n:96 Lud.R);
    ("pagerank", fun () -> Pagerank.app ~nodes:8192 ~avg_degree:8 ~iters:3 ());
    ("qpscd", fun () -> Qpscd.app ~samples:1024 ~dim:1024 ());
    ("msm_cluster", fun () -> Msm_cluster.app ());
    ("naive_bayes", fun () -> Naive_bayes.app ~docs:1024 ~words:512 ());
    ("gemm", fun () -> Gemm.app ~m:128 ~n:128 ~k:128 ());
    ("fig8", fun () -> Experiments.fig8_app ());
  ]

let names = List.map fst all
let find name = Option.map (fun mk -> mk ()) (List.assoc_opt name all)
