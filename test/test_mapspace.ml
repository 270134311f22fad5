(* Pinned mapping-space quality of every cost model (the paper's Fig 17
   question, Section VI-G): for the seven apps of perfbench's `sweep`
   workload at its non-tiny sizes, rank the target pattern's
   hard-feasible mappings under each model, simulate the union of every
   model's top-6 and a stride-(n/12) sample, and compare.

   Per app the table pins the population size, the number of mappings
   simulated and the predictor's Spearman rho (predicted cycles against
   simulated seconds); per model it pins the selected mapping, its regret
   over the best simulated mapping and the model's rank correlation.

   The runs are explicit — default lowering options, the compiled engine,
   one simulation job, two pool jobs — so the table holds under any
   PPAT_COST_MODEL, PPAT_SHUFFLE, PPAT_SIM_JOBS or PPAT_ENGINE.

   Any change that moves a ranking (predictor, score, search, lowering or
   timing model) must re-pin this table in the same change and state each
   moved cell as old -> new in CHANGES.md. *)
module Runner = Ppat_harness.Runner
module Cost_model = Ppat_core.Cost_model
module A = Ppat_apps

let dev = Ppat_gpu.Device.k20c

type pin = {
  app : string;
  population : int;
  simulated : int;
  predictor_rho : float;
  models : (Cost_model.kind * string * float * float) list;
      (** model, selected mapping, regret, spearman *)
}

let apps : (string * (unit -> A.App.t)) list =
  [
    ("sum_rows", fun () -> A.Sum_rows_cols.sum_rows ~r:256 ~c:64 ());
    ("sum_cols", fun () -> A.Sum_rows_cols.sum_cols ~r:256 ~c:64 ());
    ("hotspot", fun () -> A.Hotspot.app ~n:48 ~steps:1 A.Hotspot.R);
    ("qpscd", fun () -> A.Qpscd.app ~samples:64 ~dim:64 ());
    ("gemm", fun () -> A.Gemm.app ~m:16 ~n:16 ~k:8 ());
    ( "msm_cluster",
      fun () -> A.Msm_cluster.app ~frames:32 ~centers:8 ~dims:8 () );
    ( "mandelbrot",
      fun () -> A.Mandelbrot.app ~h:16 ~w:256 ~max_iter:8 A.Mandelbrot.R );
  ]

let pins =
  Cost_model.
    [
      {
        app = "sum_rows"; population = 264; simulated = 21;
        predictor_rho = 0.798568;
        models =
          [
            (Soft, "L0:[DimY, 4, span(1)] L1:[DimX, 64, span(all)]", 0.042782, 0.766331);
            (Analytical, "L0:[DimY, 16, span(1)] L1:[DimX, 64, span(all)]", 0.000000, 0.796230);
            (Hybrid, "L0:[DimY, 16, span(1)] L1:[DimX, 64, span(all)]", 0.000000, 0.805330);
          ];
      };
      {
        app = "sum_cols"; population = 264; simulated = 23;
        predictor_rho = 0.556308;
        models =
          [
            (Soft, "L0:[DimX, 32, span(1)] L1:[DimY, 32, span(all)]", 0.546386, 0.450784);
            (Analytical, "L0:[DimX, 8, span(1)] L1:[DimY, 128, span(all)]", 0.000000, 0.556909);
            (Hybrid, "L0:[DimX, 32, span(1)] L1:[DimY, 32, span(all)]", 0.546386, 0.422021);
          ];
      };
      {
        app = "hotspot"; population = 528; simulated = 26;
        predictor_rho = 0.235729;
        models =
          [
            (Soft, "L0:[DimY, 4, span(1)] L1:[DimX, 64, span(1)]", 0.032362, 0.757865);
            (Analytical, "L0:[DimX, 1, span(1)] L1:[DimY, 8, span(1)]", 0.377769, 0.233909);
            (Hybrid, "L0:[DimY, 4, span(1)] L1:[DimX, 64, span(1)]", 0.032362, 0.709351);
          ];
      };
      {
        app = "qpscd"; population = 264; simulated = 23;
        predictor_rho = 0.848471;
        models =
          [
            (Soft, "L0:[DimY, 4, span(1)] L1:[DimX, 64, span(all)]", 0.044709, 0.453512);
            (Analytical, "L0:[DimY, 4, span(1)] L1:[DimX, 64, span(all)]", 0.044709, 0.838279);
            (Hybrid, "L0:[DimY, 4, span(1)] L1:[DimX, 64, span(all)]", 0.044709, 0.432740);
          ];
      };
      {
        app = "gemm"; population = 6864; simulated = 18;
        predictor_rho = 0.485866;
        models =
          [
            (Soft, "L0:[DimY, 1, span(1)] L1:[DimX, 32, span(1)] L2:[DimZ, 8, span(all)]", 0.003753, 0.602158);
            (Analytical, "L0:[DimY, 1, span(1)] L1:[DimX, 32, span(1)] L2:[DimZ, 8, span(all)]", 0.003753, 0.423741);
            (Hybrid, "L0:[DimY, 1, span(1)] L1:[DimX, 32, span(1)] L2:[DimZ, 8, span(all)]", 0.003753, 0.602158);
          ];
      };
      {
        app = "msm_cluster"; population = 3432; simulated = 22;
        predictor_rho = 0.606216;
        models =
          [
            (Soft, "L0:[DimY, 1, span(1)] L1:[DimZ, 8, span(all)] L2:[DimX, 32, span(all)]", 0.000000, 0.777978);
            (Analytical, "L0:[DimY, 2, span(1)] L1:[DimZ, 8, span(all)] L2:[DimX, 32, span(all)]", 0.045586, 0.608529);
            (Hybrid, "L0:[DimY, 2, span(1)] L1:[DimZ, 8, span(all)] L2:[DimX, 32, span(all)]", 0.045586, 0.720732);
          ];
      };
      {
        app = "mandelbrot"; population = 528; simulated = 20;
        predictor_rho = 0.946808;
        models =
          [
            (Soft, "L0:[DimY, 1, span(1)] L1:[DimX, 256, span(1)]", 0.001283, 0.909506);
            (Analytical, "L0:[DimY, 1, span(1)] L1:[DimX, 256, span(1)]", 0.001283, 0.962297);
            (Hybrid, "L0:[DimY, 1, span(1)] L1:[DimX, 256, span(1)]", 0.001283, 0.898948);
          ];
      };
    ]

(* the pinned values are printed to six places *)
let close = Alcotest.float 1e-6

(* the table's quantities for one app, from the mapping-space report *)
let measure name =
  let app : A.App.t = List.assoc name apps () in
  match
    Runner.mapspace ~engine:Ppat_kernel.Interp.Compiled ~sim_jobs:1 ~jobs:2
      ~opts:Ppat_codegen.Lower.default_options ~params:app.params ~top:6 dev
      app.prog (A.App.input_data app)
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    {
      app = name;
      population = Array.length r.ms_space.ts_candidates;
      simulated = List.length r.ms_seconds;
      predictor_rho = r.ms_predictor_spearman;
      models =
        List.map
          (fun (m : Runner.model_report) ->
            ( m.mr_model,
              Ppat_core.Mapping.to_string
                r.ms_space.ts_candidates.(m.mr_selected),
              m.mr_regret,
              m.mr_spearman ))
          r.ms_models;
    }

let test_pinned () =
  List.iter
    (fun (pin : pin) ->
      let got = measure pin.app in
      let where what = Printf.sprintf "%s %s" pin.app what in
      Alcotest.(check int) (where "population") pin.population got.population;
      Alcotest.(check int) (where "simulated") pin.simulated got.simulated;
      Alcotest.check close (where "predictor rho") pin.predictor_rho
        got.predictor_rho;
      List.iter2
        (fun (m, mapping, regret, rho) (m', mapping', regret', rho') ->
          let where what = where (Cost_model.name m ^ " " ^ what) in
          Alcotest.(check string) (where "model") (Cost_model.name m)
            (Cost_model.name m');
          Alcotest.(check string) (where "selected mapping") mapping mapping';
          Alcotest.check close (where "regret") regret regret';
          Alcotest.check close (where "spearman") rho rho')
        pin.models got.models)
    pins

let tests =
  [
    Alcotest.test_case "pinned cost-model regret (7 sweep apps)" `Quick
      test_pinned;
  ]
