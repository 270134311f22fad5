module Strategy = Ppat_core.Strategy
module Mapping = Ppat_core.Mapping
module Lower = Ppat_codegen.Lower
module Runner = Ppat_harness.Runner
module Cost_model = Ppat_core.Cost_model
module MK = Manual_kernels

type cell = { variant : string; seconds : float; ok : bool }
type row = { rlabel : string; cells : cell list }

type table = {
  title : string;
  baseline : string;
  rows : row list;
  notes : string list;
}

(* run one app under a strategy against a precomputed oracle *)
let strat_cell ?opts ?model dev (app : App.t) oracle strat =
  let data = App.input_data app in
  let r =
    Runner.run_gpu ?opts ?model ~params:app.params dev app.prog strat data
  in
  let ok =
    Runner.check ~eps:(Float.max app.eps 1e-4) ~unordered:app.unordered
      app.prog ~expected:oracle ~actual:r.data
    = Ok ()
  in
  { variant = Strategy.name strat; seconds = r.seconds; ok }

let manual_cell ?only dev (app : App.t) oracle mk =
  let data = App.input_data app in
  let (m : MK.result) = mk dev app data in
  let ok =
    Runner.check ~eps:1e-3 ~unordered:app.unordered ?only app.prog
      ~expected:oracle ~actual:m.MK.data
    = Ok ()
  in
  { variant = "Manual"; seconds = m.MK.seconds; ok }

let oracle_of (app : App.t) =
  (Runner.run_cpu ~params:app.params app.prog (App.input_data app)).cpu_data

(* ----- Figure 3 ----- *)

let fig3 dev =
  let shapes = [ (8192, 64); (1024, 512); (64, 8192) ] in
  let apps =
    List.concat_map
      (fun (r, c) ->
        [
          ( Printf.sprintf "sumCols [%d,%d]" r c,
            Sum_rows_cols.sum_cols ~r ~c () );
          ( Printf.sprintf "sumRows [%d,%d]" r c,
            Sum_rows_cols.sum_rows ~r ~c () );
        ])
      shapes
  in
  let rows =
    List.map
      (fun (label, app) ->
        let oracle = oracle_of app in
        let cells =
          List.map
            (strat_cell dev app oracle)
            Strategy.
              [ Auto; One_d; Thread_block_thread; Warp_based ]
        in
        { rlabel = label; cells })
      apps
  in
  {
    title =
      "Figure 3: sumCols/sumRows under fixed mapping strategies (normalised \
       to MultiDim; paper finds gaps up to 58x)";
    baseline = "MultiDim";
    rows;
    notes =
      [
        "matrix shapes scaled from the paper's [64K,1K]/[8K,8K]/[1K,64K] \
         keeping the same skew ratios and equal element counts";
      ];
  }

(* ----- Figure 12 ----- *)

let fig12 dev =
  let entries =
    [
      ("Nearest Neighbor", Nearest_neighbor.app ~n:65536 (),
       MK.nearest_neighbor, None);
      ("Gaussian Elim.", Gaussian.app ~n:256 ~steps:64 Gaussian.R, MK.gaussian, None);
      ("BFS", Bfs.app ~nodes:16384 ~avg_degree:16 (), MK.bfs, None);
      ("Hotspot", Hotspot.app ~n:256 ~steps:4 Hotspot.R, MK.hotspot, None);
      ("Mandelbrot", Mandelbrot.app ~h:256 ~w:256 ~max_iter:48 Mandelbrot.R,
       MK.mandelbrot, None);
      ("Srad", Srad.app ~n:192 ~iters:2 Srad.R, MK.srad, None);
      ("Pathfinder", Pathfinder.app ~rows:48 ~cols:24576 (),
       (fun dev app data -> MK.pathfinder dev app data), Some [ "prev" ]);
      ("LUD", Lud.app ~n:256 ~steps:64 Lud.R, (fun dev app data -> MK.lud dev app data),
       None);
    ]
  in
  let rows =
    List.map
      (fun (label, app, mk, only) ->
        let oracle = oracle_of app in
        let cells =
          manual_cell ?only dev app oracle mk
          :: List.map (strat_cell dev app oracle) Strategy.[ Auto; One_d ]
        in
        { rlabel = label; cells })
      entries
  in
  {
    title =
      "Figure 12: Rodinia benchmarks vs hand-optimised implementations \
       (normalised to Manual)";
    baseline = "Manual";
    rows;
    notes =
      [
        "Pathfinder/LUD manual kernels fuse iterations through shared \
         memory (not inferred by the compiler, as in the paper)";
        "BFS manual parallelises only the node level, like Rodinia";
      ];
  }

(* ----- Figure 13 ----- *)

let fig13 dev =
  let entries =
    [
      ("Gaussian (R)", Gaussian.app ~n:256 ~steps:64 Gaussian.R);
      ("Gaussian (C)", Gaussian.app ~n:256 ~steps:64 Gaussian.C);
      ("Hotspot (R)", Hotspot.app ~n:256 ~steps:4 Hotspot.R);
      ("Hotspot (C)", Hotspot.app ~n:256 ~steps:4 Hotspot.C);
      ("Mandelbrot (R)", Mandelbrot.app ~h:256 ~w:256 ~max_iter:48 Mandelbrot.R);
      ("Mandelbrot (C)", Mandelbrot.app ~h:256 ~w:256 ~max_iter:48 Mandelbrot.C);
      ("Srad (R)", Srad.app ~n:192 ~iters:2 Srad.R);
      ("Srad (C)", Srad.app ~n:192 ~iters:2 Srad.C);
    ]
  in
  let rows =
    List.map
      (fun (label, app) ->
        let oracle = oracle_of app in
        let cells =
          List.map
            (strat_cell dev app oracle)
            Strategy.[ Auto; Thread_block_thread; Warp_based ]
        in
        { rlabel = label; cells })
      entries
  in
  {
    title =
      "Figure 13: row-/column-order traversals vs fixed two-dimensional \
       strategies (normalised to MultiDim)";
    baseline = "MultiDim";
    rows;
    notes = [];
  }

(* ----- Figure 14 ----- *)

let fig14 dev =
  let entries =
    [
      ("QPSCD HogWild", Qpscd.app ~samples:2048 ~dim:2048 (), false);
      ("MSMBuilder", Msm_cluster.app ~frames:4096 ~centers:64 ~dims:64 (),
       false);
      ("Naive Bayes", Naive_bayes.app ~docs:2048 ~words:1024 (), true);
    ]
  in
  let rows =
    List.map
      (fun (label, (app : App.t), with_transfer) ->
        let data = App.input_data app in
        let cpu = Runner.run_cpu ~params:app.params app.prog data in
        let gpu strat = strat_cell dev app cpu.cpu_data strat in
        let auto = gpu Strategy.Auto in
        let base =
          [
            { variant = "CPU"; seconds = cpu.cpu_seconds; ok = true };
            gpu Strategy.One_d;
            auto;
          ]
        in
        let cells =
          if with_transfer then
            base
            @ [
                {
                  variant = "MultiDim+transfer";
                  seconds =
                    auto.seconds
                    +. Ppat_gpu.Timing.transfer_seconds dev
                         ~bytes:(Runner.input_bytes ~params:app.params app.prog);
                  ok = auto.ok;
                };
              ]
          else base
        in
        { rlabel = label; cells })
      entries
  in
  {
    title =
      "Figure 14: real-world applications vs multi-core CPU (normalised to \
       CPU)";
    baseline = "CPU";
    rows;
    notes =
      [
        "the Naive Bayes row adds the PCIe input-transfer cost, amortised \
         by the iterative applications (paper Section VI-E)";
      ];
  }

(* ----- Figure 16 ----- *)

let fig16 dev =
  let entries =
    [
      ("sumWeightedRows", Sum_rows_cols.sum_weighted_rows ~r:2048 ~c:256 ());
      ("sumWeightedCols", Sum_rows_cols.sum_weighted_cols ~r:256 ~c:2048 ());
    ]
  in
  let modes =
    [
      ("Malloc", Lower.Malloc);
      ("Prealloc", Lower.Prealloc);
      ("Prealloc+layout", Lower.Prealloc_opt);
    ]
  in
  let rows =
    List.map
      (fun (label, app) ->
        let oracle = oracle_of app in
        let cells =
          List.map
            (fun (vname, mode) ->
              let opts = { Lower.default_options with alloc_mode = mode } in
              let c = strat_cell ~opts dev app oracle Strategy.Auto in
              { c with variant = vname })
            modes
        in
        { rlabel = label; cells })
      entries
  in
  {
    title =
      "Figure 16: optimising dynamic allocations of nested patterns \
       (normalised to Prealloc+layout)";
    baseline = "Prealloc+layout";
    rows;
    notes =
      [
        "Malloc charges one device-side allocation per outer iteration; \
         Prealloc uses a fixed outer-major layout; the layout optimisation \
         picks the physical order from the mapping (paper Figure 11)";
      ];
  }

(* ----- Figure 17 ----- *)

(* a view over the mapping-space report: every mapping it samples (each
   cost model's top-6 plus a strided sample), checked against the oracle,
   next to the MultiDim pick and the warp-based preset *)
let fig17 ~jobs dev =
  let app = Mandelbrot.app ~h:32 ~w:2048 ~max_iter:24 Mandelbrot.R in
  let data = App.input_data app in
  let ms =
    match
      Runner.mapspace ~top:6 ~jobs ~params:app.params dev app.prog data
    with
    | Ok ms -> ms
    | Error e -> failwith ("fig17: " ^ e)
  in
  let oracle = oracle_of app in
  let ts = ms.ms_space in
  (* population index, soft score and validated cell of each sample *)
  let point k (c : Runner.sweep_candidate) =
    let seconds, ok =
      match c.sc_result with
      | Ok r ->
        ( r.seconds,
          Runner.check ~eps:1e-6 app.prog ~expected:oracle ~actual:r.data
          = Ok () )
      | Error _ -> (nan, false)
    in
    ( ms.ms_sample.(k),
      (Cost_model.evaluate Cost_model.Soft dev ts.ts_collect c.sc_mapping)
        .soft_score,
      { variant = Mapping.to_string c.sc_mapping; seconds; ok } )
  in
  let points = Array.to_list (Array.mapi point ms.ms_results) in
  let soft =
    List.find
      (fun (m : Runner.model_report) -> m.mr_model = Cost_model.Soft)
      ms.ms_models
  in
  let best =
    List.fold_left
      (fun acc (_, _, c) -> if c.ok then Float.min acc c.seconds else acc)
      infinity points
  in
  let soft_pick =
    List.filter_map
      (fun (i, _, c) ->
        if i = soft.mr_selected then Some { c with variant = "soft pick" }
        else None)
      points
  in
  let failed = List.length (List.filter (fun (_, _, c) -> not c.ok) points) in
  let by_score =
    List.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare b a) points
  in
  {
    title =
      "Figure 17: performance and score across the mapping space \
       (skewed Mandelbrot output)";
    baseline = "best sampled mapping";
    rows =
      {
        rlabel = "summary";
        cells =
          ({ variant = "best sampled mapping"; seconds = best; ok = true }
           :: soft_pick)
          @ [
              { (strat_cell dev app oracle Strategy.Auto) with
                variant = "MultiDim pick" };
              { (strat_cell dev app oracle Strategy.Warp_based) with
                variant = "Warp-based (region B)" };
            ];
      }
      :: List.map
           (fun (_, score, c) ->
             { rlabel = Printf.sprintf "soft score %.4g" score; cells = [ c ] })
           by_score;
    notes =
      [
        Printf.sprintf
          "%d of %d hard-feasible mappings sampled (each cost model's \
           top-6 plus a stride-%d sample), %d failed; soft's rank \
           correlation with simulated time rho=%.3f, its pick's regret \
           %.1f%%"
          (List.length points)
          (Array.length ts.ts_candidates)
          (Ppat_core.Sweep.stride (Array.length ts.ts_candidates))
          failed soft.mr_spearman (100. *. soft.mr_regret);
      ];
  }

(* ----- Ablations: the optimisations of Section V and the generated-code
   quality choices, each toggled in isolation ----- *)

(* the paper's Figure 8 shape: an imperfect nest where the outer level also
   reads memory (one vector read per outer index under an inner 2D sweep) *)
let fig8_app ?(rows = 1024) ?(cols = 1024) () =
  let open Ppat_ir in
  let b = Builder.create () in
  let top =
    Builder.foreach b ~label:"fig8" ~size:(Pat.Sparam "I") (fun i0 ->
        [
          Builder.nest
            (Builder.foreach b ~label:"inner" ~size:(Pat.Sparam "J")
               (fun j ->
                 [
                   Pat.Store
                     ( "o2",
                       [ i0; j ],
                       Exp.Bin
                         ( Exp.Add,
                           Exp.Read ("a1", [ i0 ]),
                           Exp.Read ("a2", [ i0; j ]) ) );
                 ]));
        ])
  in
  let prog =
    {
      Pat.pname = "fig8";
      defaults = [ ("I", rows); ("J", cols) ];
      buffers =
        [
          Pat.buffer "a1" Ty.F64 [ Ty.Param "I" ] Pat.Input;
          Pat.buffer "a2" Ty.F64 [ Ty.Param "I"; Ty.Param "J" ] Pat.Input;
          Pat.buffer "o2" Ty.F64 [ Ty.Param "I"; Ty.Param "J" ] Pat.Output;
        ];
      steps = [ Pat.Launch { bind = None; pat = top } ];
    }
  in
  App.make ~name:"fig8"
    ~gen:(fun params ->
      let i = List.assoc "I" params and j = List.assoc "J" params in
      [
        ("a1", Ppat_ir.Host.F (Workloads.farray ~seed:131 i));
        ("a2", Ppat_ir.Host.F (Workloads.farray ~seed:132 (Stdlib.( * ) i j)));
      ])
    prog

(* shuffle synthesis, a Kepler extension of Figure 9's trees: msmCluster's
   arg-min reductions fit one warp on dimension x. The mapping is pinned
   to the soft model's pick, so only the lowering differs between cells *)
let shuffle_row ?(frames = 1024) dev =
  let app = Msm_cluster.app ~frames ~centers:32 ~dims:32 () in
  let oracle = oracle_of app in
  let cell variant shuffle =
    let opts = { Lower.default_options with shuffle } in
    let c =
      strat_cell ~opts ~model:Cost_model.Soft dev app oracle
        Strategy.Auto
    in
    { c with variant }
  in
  {
    rlabel = Printf.sprintf "msmCluster %d arg-min" frames;
    cells = [ cell "smem-tree" false; cell "shuffle" true ];
  }

let ablation dev =
  let opt_cell name opts strat (app : App.t) oracle =
    let c = strat_cell ~opts dev app oracle strat in
    { c with variant = name }
  in
  let base = Lower.default_options in
  (* prefetching only has a target when a block spans several outer rows,
     so these rows pin a typical [DimY,8]x[DimX,...] geometry *)
  let prefetch_row label app pick =
    let oracle = oracle_of app in
    let data = App.input_data app in
    let cell name opts =
      let m : Manual_kernels.result =
        Manual_kernels.fixed ~opts dev pick app data
      in
      let ok =
        Runner.check ~eps:1e-4 app.App.prog ~expected:oracle
          ~actual:m.Manual_kernels.data
        = Ok ()
      in
      { variant = name; seconds = m.Manual_kernels.seconds; ok }
    in
    {
      rlabel = label;
      cells =
        [
          cell "prefetch" base;
          cell "no-prefetch" { base with smem_prefetch = false };
        ];
    }
  in
  let d8 dim bsize =
    { Mapping.dim; bsize; span = Mapping.span1 }
  in
  let warp_sync_row =
    let app = Sum_rows_cols.sum_rows ~r:2048 ~c:1024 () in
    let oracle = oracle_of app in
    {
      rlabel = "sumRows 1024-wide tree (TB/T)";
      cells =
        [
          opt_cell "warp-sync" base Strategy.Thread_block_thread app oracle;
          opt_cell "all-barriers"
            { base with warp_sync = false }
            Strategy.Thread_block_thread app oracle;
        ];
    }
  in
  let filter_row =
    let open Ppat_ir in
    let b = Builder.create () in
    let n = 65536 in
    let top =
      Builder.filter b ~label:"keep" ~size:(Pat.Sconst n)
        ~pred:(fun ix ->
          Exp.Cmp (Exp.Lt, Exp.Read ("src", [ ix ]), Exp.Float 0.5))
        (fun ix -> Exp.Read ("src", [ ix ]))
    in
    let prog =
      {
        Pat.pname = "filter_abl";
        defaults = [];
        buffers =
          [
            Pat.buffer "src" Ty.F64 [ Ty.Const n ] Pat.Input;
            Pat.buffer "out" Ty.F64 [ Ty.Const n ] Pat.Output;
            Pat.buffer "out_count" Ty.I32 [ Ty.Const 1 ] Pat.Output;
          ];
        steps = [ Pat.Launch { bind = Some "out"; pat = top } ];
      }
    in
    let app =
      App.make ~name:"filter" ~unordered:[ "out" ]
        ~gen:(fun _ -> [ ("src", Host.F (Workloads.farray ~seed:141 n)) ])
        prog
    in
    let oracle = oracle_of app in
    {
      rlabel = "filter 64K (atomic vs scan)";
      cells =
        [
          opt_cell "atomic-append" base Strategy.Auto app oracle;
          opt_cell "ordered-scan"
            { base with ordered_filter = true }
            Strategy.Auto app oracle;
        ];
    }
  in
  {
    title =
      "Ablations: each mapping-guided optimisation toggled in isolation \
       (normalised to the first variant)";
    baseline = "prefetch";
    rows =
      [
        prefetch_row "fig8 imperfect nest (1024^2)" (fig8_app ())
          (fun _ -> Some [| d8 Mapping.Y 8; d8 Mapping.X 128 |]);
        prefetch_row "gaussian (R) 128" (Gaussian.app ~n:128 Gaussian.R)
          (function
            | "fan2_r" -> Some [| d8 Mapping.Y 8; d8 Mapping.X 32 |]
            | _ -> None);
        warp_sync_row;
        filter_row;
        shuffle_row dev;
      ];
    notes =
      [
        "warp-sync, filter and shuffle rows are normalised to their own \
         first variant";
      ];
  }

(* ----- printing ----- *)

let print_table ppf (t : table) =
  Format.fprintf ppf "@.%s@." t.title;
  Format.fprintf ppf "%s@."
    (String.make (min 78 (String.length t.title)) '-');
  let mark c = if c.ok then "" else "(!)" in
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-22s" r.rlabel;
      match
        (List.find_opt (fun c -> c.variant = t.baseline) r.cells, r.cells)
      with
      | None, [ c ] ->
        (* a lone cell has nothing to be normalised to *)
        Format.fprintf ppf " %s%s  [%.4g s]@." c.variant (mark c) c.seconds
      | base, cells ->
        (* rows without the named baseline normalise to their first cell *)
        let base =
          match (base, cells) with
          | Some c, _ | None, c :: _ -> c.seconds
          | None, [] -> 1.
        in
        List.iter
          (fun c ->
            Format.fprintf ppf " %s=%.2f%s" c.variant (c.seconds /. base)
              (mark c))
          cells;
        Format.fprintf ppf "  [%.3g s]@." base)
    t.rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) t.notes

let failures t =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun c -> if c.ok then None else Some (r.rlabel, c.variant))
        r.cells)
    t.rows

let all ~jobs dev =
  [
    ("fig3", fun () -> fig3 dev);
    ("fig12", fun () -> fig12 dev);
    ("fig13", fun () -> fig13 dev);
    ("fig14", fun () -> fig14 dev);
    ("fig16", fun () -> fig16 dev);
    ("fig17", fun () -> fig17 ~jobs dev);
    ("ablation", fun () -> ablation dev);
  ]
