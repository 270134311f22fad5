(* The counter and digest contract. The simulator's statistics, served
   answers and sweep results are deterministic, so each is pinned to an
   exact expected value: any drift is a behaviour change, never noise.

   Every expected value below was copied verbatim from the frozen bench
   artifacts committed at 73b2f76 (the classic suite with shuffle
   synthesis off and on, the cache-bypassed served-traffic run and the
   batched-sweep run); none was regenerated by the code it checks. The
   mapping search is pinned to the soft cost model and shuffle synthesis
   is set explicitly, so the contract holds under any PPAT_COST_MODEL,
   PPAT_SHUFFLE, PPAT_SIM_JOBS or PPAT_ENGINE default. Wall clock is not
   checked here: perfbench/ is the only performance measurement. *)
module A = Ppat_apps
module J = Ppat_profile.Jsonx
module Runner = Ppat_harness.Runner
module Strategy = Ppat_core.Strategy

let dev = Ppat_gpu.Device.k20c

let with_shuffle on f =
  let saved = !Ppat_gpu.Tuning.shuffle_enabled in
  Ppat_gpu.Tuning.shuffle_enabled := on;
  Fun.protect ~finally:(fun () -> Ppat_gpu.Tuning.shuffle_enabled := saved) f

(* ----- the classic suite: aggregate statistics per app, shuffle
   synthesis off and on ----- *)

let classic_off =
  [
    ( "sumRows",
      {|{"warp_insts":823296.0,"mem_insts":69632.0,"transactions":135168.0,"bytes":16809984.0,"l2_bytes":491520.0,"smem_insts":69632.0,"smem_conflict_extra":0.0,"syncs":4096.0,"shuffles":0.0,"divergent_branches":24576.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.028409090909090908,"bytes_per_transaction":128.0}|} );
    ( "sumCols",
      {|{"warp_insts":268264.0,"mem_insts":16456.0,"transactions":33296.0,"bytes":4204544.0,"l2_bytes":57344.0,"smem_insts":5024.0,"smem_conflict_extra":0.0,"syncs":7168.0,"shuffles":0.0,"divergent_branches":0.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.013455069678039404,"bytes_per_transaction":128.0}|} );
    ( "hotspot",
      {|{"warp_insts":161280.0,"mem_insts":19968.0,"transactions":39936.0,"bytes":884736.0,"l2_bytes":4227072.0,"smem_insts":0.0,"smem_conflict_extra":0.0,"syncs":0.0,"shuffles":0.0,"divergent_branches":0.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.8269230769230769,"bytes_per_transaction":128.0}|} );
    ( "mandelbrot-c",
      {|{"warp_insts":156642.0,"mem_insts":288.0,"transactions":9216.0,"bytes":36864.0,"l2_bytes":1142784.0,"smem_insts":0.0,"smem_conflict_extra":0.0,"syncs":0.0,"shuffles":0.0,"divergent_branches":1434.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.96875,"bytes_per_transaction":128.0}|} );
    ( "qpscd",
      {|{"warp_insts":84224.0,"mem_insts":10752.0,"transactions":14848.0,"bytes":531456.0,"l2_bytes":1369088.0,"smem_insts":13312.0,"smem_conflict_extra":0.0,"syncs":12288.0,"shuffles":0.0,"divergent_branches":1536.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.7203663793103449,"bytes_per_transaction":128.0}|} );
    ( "msmCluster",
      {|{"warp_insts":4393696.0,"mem_insts":66560.0,"transactions":132096.0,"bytes":278528.0,"l2_bytes":16629760.0,"smem_insts":876448.0,"smem_conflict_extra":0.0,"syncs":262144.0,"shuffles":0.0,"divergent_branches":164864.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.9835271317829457,"bytes_per_transaction":128.0}|} );
    ( "sumWeightedRows-malloc",
      {|{"warp_insts":59904.0,"mem_insts":4352.0,"transactions":8448.0,"bytes":527360.0,"l2_bytes":553984.0,"smem_insts":8192.0,"smem_conflict_extra":0.0,"syncs":6144.0,"shuffles":0.0,"divergent_branches":1792.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":256.0,"l2_hit_rate":0.5123106060606061,"bytes_per_transaction":128.0}|} );
  ]


let classic_on =
  [
    ( "sumRows",
      {|{"warp_insts":610304.0,"mem_insts":69632.0,"transactions":135168.0,"bytes":16809984.0,"l2_bytes":491520.0,"smem_insts":0.0,"smem_conflict_extra":0.0,"syncs":0.0,"shuffles":24576.0,"divergent_branches":24576.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.028409090909090908,"bytes_per_transaction":128.0}|} );
    ( "sumCols",
      {|{"warp_insts":268264.0,"mem_insts":16456.0,"transactions":33296.0,"bytes":4204544.0,"l2_bytes":57344.0,"smem_insts":5024.0,"smem_conflict_extra":0.0,"syncs":7168.0,"shuffles":0.0,"divergent_branches":0.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.013455069678039404,"bytes_per_transaction":128.0}|} );
    ( "hotspot",
      {|{"warp_insts":161280.0,"mem_insts":19968.0,"transactions":39936.0,"bytes":884736.0,"l2_bytes":4227072.0,"smem_insts":0.0,"smem_conflict_extra":0.0,"syncs":0.0,"shuffles":0.0,"divergent_branches":0.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.8269230769230769,"bytes_per_transaction":128.0}|} );
    ( "mandelbrot-c",
      {|{"warp_insts":156642.0,"mem_insts":288.0,"transactions":9216.0,"bytes":36864.0,"l2_bytes":1142784.0,"smem_insts":0.0,"smem_conflict_extra":0.0,"syncs":0.0,"shuffles":0.0,"divergent_branches":1434.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.96875,"bytes_per_transaction":128.0}|} );
    ( "qpscd",
      {|{"warp_insts":84224.0,"mem_insts":10752.0,"transactions":14848.0,"bytes":531456.0,"l2_bytes":1369088.0,"smem_insts":13312.0,"smem_conflict_extra":0.0,"syncs":12288.0,"shuffles":0.0,"divergent_branches":1536.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.7203663793103449,"bytes_per_transaction":128.0}|} );
    ( "msmCluster",
      {|{"warp_insts":2689760.0,"mem_insts":66560.0,"transactions":132096.0,"bytes":278528.0,"l2_bytes":16629760.0,"smem_insts":319392.0,"smem_conflict_extra":0.0,"syncs":229376.0,"shuffles":196608.0,"divergent_branches":164864.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":0.0,"l2_hit_rate":0.9835271317829457,"bytes_per_transaction":128.0}|} );
    ( "sumWeightedRows-malloc",
      {|{"warp_insts":59904.0,"mem_insts":4352.0,"transactions":8448.0,"bytes":527360.0,"l2_bytes":553984.0,"smem_insts":8192.0,"smem_conflict_extra":0.0,"syncs":6144.0,"shuffles":0.0,"divergent_branches":1792.0,"atomics":0.0,"atomic_serial_extra":0.0,"mallocs":256.0,"l2_hit_rate":0.5123106060606061,"bytes_per_transaction":128.0}|} );
  ]


(* built inside the shuffle setting: the malloc variant's lowering options
   carry the knob *)
let classic_suite () =
  let s = Strategy.Auto in
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:4096 ~c:512 (), s, None);
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:2048 ~c:256 (), s, None);
    ("hotspot", A.Hotspot.app ~n:192 ~steps:2 A.Hotspot.R, s, None);
    ( "mandelbrot-c",
      A.Mandelbrot.app ~h:96 ~w:96 ~max_iter:64 A.Mandelbrot.C,
      Strategy.Warp_based,
      None );
    ("qpscd", A.Qpscd.app ~samples:256 ~dim:256 (), s, None);
    ("msmCluster", A.Msm_cluster.app ~frames:1024 ~centers:32 ~dims:32 (), s, None);
    ( "sumWeightedRows-malloc",
      A.Sum_rows_cols.sum_weighted_rows ~r:256 ~c:128 (),
      s,
      Some
        {
          (Ppat_codegen.Lower.effective_options ()) with
          alloc_mode = Ppat_codegen.Lower.Malloc;
        } );
  ]

let test_classic ~shuffle golden () =
  with_shuffle shuffle (fun () ->
      let suite = classic_suite () in
      Alcotest.(check (list string))
        "suite apps" (List.map fst golden)
        (List.map (fun (n, _, _, _) -> n) suite);
      List.iter
        (fun (name, (app : A.App.t), strat, opts) ->
          let r =
            Runner.run_gpu ?opts ~model:Ppat_core.Cost_model.Soft
              ~params:app.params dev app.prog strat (A.App.input_data app)
          in
          let got = Ppat_profile.Record.json_of_stats r.stats in
          let want = Test_serve.parse_resp name (List.assoc name golden) in
          if not (J.equal want got) then
            Alcotest.failf "%s: statistics drifted\n  want %s\n  got  %s" name
              (J.to_string ~minify:true want)
              (J.to_string ~minify:true got))
        suite)

(* ----- the served-traffic configs: each answer's digest over statistics
   and buffers, from a cold miss and from the plan-cache hit ----- *)

(* name, app, params, strategy, cost model, answer digest *)
let serve_configs =
  [
    ("gemm16-analytical", "gemm", [ ("M", 16); ("N", 16); ("K", 16) ], "auto", "analytical", "2792da14c982339aa1ccbae1002809f2");
    ("gemm24-analytical", "gemm", [ ("M", 24); ("N", 24); ("K", 12) ], "auto", "analytical", "34827d45018c550d12ebb455fba87980");
    ("msm64-analytical", "msm_cluster", [ ("T", 64); ("KC", 8); ("D", 8) ], "auto", "analytical", "e9c88e5b95b0b8fd1b2e9080d27c4982");
    ("gemm8-hybrid", "gemm", [ ("M", 8); ("N", 8); ("K", 8) ], "auto", "hybrid", "aa8aebfe163674c31d90df38c3c2158b");
    ("gemm32-analytical", "gemm", [ ("M", 32); ("N", 16); ("K", 16) ], "auto", "analytical", "e693d0f26e6cfc39de8a828e1bf4182f");
    ("msm96-analytical", "msm_cluster", [ ("T", 96); ("KC", 8); ("D", 8) ], "auto", "analytical", "61bd016117ee126485fbeb61cde4582c");
    ("gemm12-analytical", "gemm", [ ("M", 12); ("N", 12); ("K", 12) ], "auto", "analytical", "689665e4158e4f9a328a1a3bf79260ee");
    ("sumRows-64x48", "sum_rows", [ ("R", 64); ("C", 48) ], "auto", "soft", "c1e989af2fd4e2d36e97ee6ad565b68c");
    ("sumCols-64x48", "sum_cols", [ ("R", 64); ("C", 48) ], "auto", "soft", "556089a47e172f8df33af06c20494111");
    ("sumCols-48x32-tbt", "sum_cols", [ ("R", 48); ("C", 32) ], "tbt", "soft", "13a3d9005f9342cfa6a47342cd414e75");
  ]

let test_serve () =
  with_shuffle false (fun () ->
      let server = Ppat_serve.Serve.create () in
      List.iter
        (fun (name, app, params, strategy, model, digest) ->
          let line =
            J.to_string ~minify:true
              (J.Obj
                 [
                   ("app", J.Str app);
                   ("params", J.Obj (List.map (fun (p, v) -> (p, J.Int v)) params));
                   ("strategy", J.Str strategy);
                   ("cost_model", J.Str model);
                 ])
          in
          List.iter
            (fun status ->
              let j = Test_serve.serve_one name server line in
              Alcotest.(check string) (name ^ ": plan cache") status
                (Test_serve.get_str name [ "cache"; "plan" ] j);
              Alcotest.(check string) (name ^ ": " ^ status ^ " digest") digest
                (Test_serve.get_str name [ "answer"; "digest" ] j))
            [ "miss"; "hit" ])
        serve_configs)

(* ----- the batched sweep: every candidate of each app's target space,
   hashed in population order (a failed candidate hashes as "-") ----- *)

(* name, app, candidates, sweep digest *)
let sweep_apps () =
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:256 ~c:64 (), 264, "b8934b08c40e4f472e8994fff2f815f9");
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:256 ~c:64 (), 264, "ae1ce5e230900765e6b12f26e0736b59");
    ("hotspot", A.Hotspot.app ~n:48 ~steps:1 A.Hotspot.R, 528, "c1f24a14495f6aa3137106351b871fbd");
  ]

let test_sweep () =
  with_shuffle false (fun () ->
      List.iter
        (fun (name, (app : A.App.t), candidates, want) ->
          let ts = Runner.target_space ~params:app.params dev app.prog in
          let results, _ =
            Runner.sweep_mapped ~jobs:2 ~params:app.params dev app.prog
              ~target_pid:ts.ts_target.pat.pid ~base:ts.ts_base ts.ts_candidates
              (A.App.input_data app)
          in
          let digest =
            Digest.to_hex
              (Digest.string
                 (String.concat ";"
                    (Array.to_list
                       (Array.map
                          (fun (c : Runner.sweep_candidate) ->
                            Option.value ~default:"-" c.sc_digest)
                          results))))
          in
          Alcotest.(check int) (name ^ ": candidates") candidates (Array.length results);
          Alcotest.(check string) (name ^ ": sweep digest") want digest)
        (sweep_apps ()))

let tests =
  [
    Alcotest.test_case "classic suite statistics, shuffle off" `Quick
      (test_classic ~shuffle:false classic_off);
    Alcotest.test_case "classic suite statistics, shuffle on" `Quick
      (test_classic ~shuffle:true classic_on);
    Alcotest.test_case "serve answer digests, miss and hit" `Quick test_serve;
    Alcotest.test_case "sweep digests" `Quick test_sweep;
  ]
