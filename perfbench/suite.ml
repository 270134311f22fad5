(* Workload `suite`: every registry app, each run validated against the
   CPU oracle: the paper's evaluation path. Sizes are about a sixth of the
   registry defaults' work (msm_cluster at 256x32x32) so one pass takes
   about a second and no app dominates it. Sizes are fixed: a different
   shape changes the chosen mapping, and with it an app's cost, by up to
   7x. The seed perturbs every floating-point input by up to 1%, which
   changes every output but not the work. *)

module A = Ppat_apps
module R = Ppat_harness.Runner
module S = Ppat_core.Strategy

let apps : (string * (tiny:bool -> A.App.t)) list =
  let open A.Sum_rows_cols in
  let sz tiny small full = if tiny then small else full in
  [
    ("sum_rows", fun ~tiny -> sum_rows ~r:(sz tiny 48 512) ~c:(sz tiny 32 256) ());
    ("sum_cols", fun ~tiny -> sum_cols ~r:(sz tiny 48 512) ~c:(sz tiny 32 256) ());
    ("sum_weighted_rows", fun ~tiny -> sum_weighted_rows ~r:(sz tiny 32 512) ~c:(sz tiny 16 128) ());
    ("sum_weighted_cols", fun ~tiny -> sum_weighted_cols ~r:(sz tiny 16 128) ~c:(sz tiny 32 512) ());
    ("nearest_neighbor", fun ~tiny -> A.Nearest_neighbor.app ~n:(sz tiny 512 32768) ());
    ("gaussian", fun ~tiny -> A.Gaussian.app ~n:(sz tiny 12 52) A.Gaussian.R);
    ("gaussian_c", fun ~tiny -> A.Gaussian.app ~n:(sz tiny 12 52) A.Gaussian.C);
    ("bfs", fun ~tiny -> A.Bfs.app ~nodes:(sz tiny 256 4096) ~avg_degree:8 ());
    ("hotspot", fun ~tiny -> A.Hotspot.app ~n:(sz tiny 16 68) ~steps:(sz tiny 1 4) A.Hotspot.R);
    ("hotspot_c", fun ~tiny -> A.Hotspot.app ~n:(sz tiny 16 68) ~steps:(sz tiny 1 4) A.Hotspot.C);
    ( "mandelbrot",
      fun ~tiny ->
        A.Mandelbrot.app ~h:(sz tiny 16 68) ~w:(sz tiny 16 68) ~max_iter:(sz tiny 8 32) A.Mandelbrot.R );
    ( "mandelbrot_c",
      fun ~tiny ->
        A.Mandelbrot.app ~h:(sz tiny 16 68) ~w:(sz tiny 16 68) ~max_iter:(sz tiny 8 32) A.Mandelbrot.C );
    ("srad", fun ~tiny -> A.Srad.app ~n:(sz tiny 16 45) ~iters:(sz tiny 1 2) A.Srad.R);
    ("srad_c", fun ~tiny -> A.Srad.app ~n:(sz tiny 16 45) ~iters:(sz tiny 1 2) A.Srad.C);
    ("pathfinder", fun ~tiny -> A.Pathfinder.app ~rows:(sz tiny 4 24) ~cols:(sz tiny 256 2048) ());
    ("lud", fun ~tiny -> A.Lud.app ~n:(sz tiny 12 52) A.Lud.R);
    ( "pagerank",
      fun ~tiny -> A.Pagerank.app ~nodes:(sz tiny 256 2048) ~avg_degree:8 ~iters:(sz tiny 1 3) () );
    ("qpscd", fun ~tiny -> A.Qpscd.app ~samples:(sz tiny 32 256) ~dim:(sz tiny 32 512) ());
    ( "msm_cluster",
      fun ~tiny -> A.Msm_cluster.app ~frames:(sz tiny 32 256) ~centers:(sz tiny 4 32) ~dims:(sz tiny 4 32) () );
    ("naive_bayes", fun ~tiny -> A.Naive_bayes.app ~docs:(sz tiny 32 256) ~words:(sz tiny 16 256) ());
    ("gemm", fun ~tiny -> A.Gemm.app ~m:(sz tiny 8 51) ~n:(sz tiny 8 51) ~k:(sz tiny 8 50) ());
    ("fig8", fun ~tiny -> A.Experiments.fig8_app ~rows:(sz tiny 32 256) ~cols:(sz tiny 32 512) ());
  ]

let model = Ppat_core.Cost_model.Soft

type app_run = { name : string; app : A.App.t; data : Ppat_ir.Host.data }

(* the identity reference: the first result each app produced *)
type reference = { digest : string; stats : Ppat_gpu.Stats.t; seconds : float }

let setup ~seed ~tiny (_ : Acc.t) =
  let rng = Random.State.make [| seed; 0x5017e |] in
  let runs =
    Array.map
      (fun (name, mk) ->
        Trace.span "apps.gen" (fun () ->
            let app = mk ~tiny in
            { name; app; data = Util.perturb rng (A.App.input_data app) }))
      (Array.of_list apps)
  in
  let opts = Ppat_codegen.Lower.effective_options () in
  let refs = Hashtbl.create 32 in
  (* one validated run of [r]; the traced path walks the layers itself and
     must reproduce the first result this app gave, whichever path gave it *)
  let run acc ~traced (r : app_run) =
    let app = r.app and name = r.name in
    Acc.attempt acc name (fun () ->
        let t0 = Util.now () in
        let stats, data, seconds =
          if traced then begin
            let w = Walker.run ~model ~opts app r.data in
            acc.Acc.walker_fallbacks <- acc.Acc.walker_fallbacks + w.fallbacks;
            (w.stats, w.data, w.seconds)
          end
          else
            let g =
              R.run_gpu ~engine:Ppat_kernel.Interp.Compiled ~sim_jobs:1 ~opts ~params:app.params
                ~model Util.dev app.prog S.Auto r.data
            in
            (g.stats, g.data, g.seconds)
        in
        let t1 = Util.now () in
        let cpu = Acc.oracle acc ~params:app.params app.prog r.data in
        Acc.check acc ~what:name app ~expected:cpu.R.cpu_data ~actual:data;
        let t2 = Util.now () in
        Acc.call acc ~app:name (t2 -. t0);
        Acc.gpu acc ~wall:(t1 -. t0) ~warp_insts:stats.warp_insts;
        let digest = Walker.digest stats data in
        match Hashtbl.find_opt refs name with
        | None -> Hashtbl.replace refs name { digest; stats; seconds }
        | Some ref_ when ref_.digest <> digest ->
          Acc.fail acc "%s: %s result differs from the first run (stats or buffers)" name
            (if traced then "walker" else "run_gpu")
        | Some _ -> ())
  in
  let pass acc ~traced =
    Array.iter (fun r -> Trace.op (fun () -> run acc ~traced r)) runs;
    Array.length runs
  in
  let deterministic () =
    let agg = Ppat_gpu.Stats.create () in
    let secs =
      Hashtbl.fold
        (fun _ r acc ->
          Ppat_gpu.Stats.add agg r.stats;
          r.seconds :: acc)
        refs []
    in
    (agg, secs)
  in
  (* the warm-up pass takes the path the timed rounds will take, so a
     traced run's walker sets the references run_gpu is then held to *)
  { Instance.warmup = (fun acc ~traced -> ignore (pass acc ~traced)); round = pass; deterministic }
