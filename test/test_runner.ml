(* Harness behaviours: analysis parameters, input accounting, comparison
   modes, device retargeting, and the extension apps. *)
open Ppat_ir
module Runner = Ppat_harness.Runner
module Strategy = Ppat_core.Strategy
module M = Ppat_core.Mapping

let dev = Ppat_gpu.Device.k20c

let test_analysis_params () =
  let app = Ppat_apps.Gaussian.app ~n:64 Ppat_apps.Gaussian.R in
  let ap = Runner.analysis_params app.prog app.params in
  (* the host-loop variable t is bound to the midpoint of its range *)
  Alcotest.(check int) "t midpoint" (63 / 2) (List.assoc "t" ap);
  Alcotest.(check int) "N kept" 64 (List.assoc "N" ap)

let test_input_bytes () =
  let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:16 ~c:8 () in
  (* one f64 input matrix; the output buffer does not count *)
  Alcotest.(check int) "input bytes" (16 * 8 * 8)
    (Runner.input_bytes ~params:app.params app.prog)

let test_check_modes () =
  let prog =
    {
      Pat.pname = "p";
      defaults = [];
      buffers =
        [
          Pat.buffer "a" Ty.F64 [ Ty.Const 3 ] Pat.Output;
          Pat.buffer "b" Ty.F64 [ Ty.Const 2 ] Pat.Output;
        ];
      steps = [];
    }
  in
  let e = [ ("a", Host.F [| 1.; 2.; 3. |]); ("b", Host.F [| 5.; 6. |]) ] in
  let permuted = [ ("a", Host.F [| 3.; 1.; 2. |]); ("b", Host.F [| 5.; 6. |]) ] in
  Alcotest.(check bool) "strict order fails" true
    (Runner.check prog ~expected:e ~actual:permuted <> Ok ());
  Alcotest.(check bool) "unordered passes" true
    (Runner.check ~unordered:[ "a" ] prog ~expected:e ~actual:permuted = Ok ());
  let bad_b = [ ("a", Host.F [| 1.; 2.; 3. |]); ("b", Host.F [| 5.; 9. |]) ] in
  Alcotest.(check bool) "only a passes" true
    (Runner.check ~only:[ "a" ] prog ~expected:e ~actual:bad_b = Ok ());
  Alcotest.(check bool) "full check catches b" true
    (Runner.check prog ~expected:e ~actual:bad_b <> Ok ())

let test_gemm () =
  let app = Ppat_apps.Gemm.app ~m:48 ~n:40 ~k:32 () in
  let data = Ppat_apps.App.input_data app in
  let cpu = Runner.run_cpu ~params:app.params app.prog data in
  List.iter
    (fun strat ->
      let r = Runner.run_gpu ~params:app.params dev app.prog strat data in
      match
        Runner.check ~eps:1e-9 app.prog ~expected:cpu.cpu_data ~actual:r.data
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Strategy.name strat) e)
    Strategy.[ Auto; One_d; Thread_block_thread; Warp_based ]

let test_gemm_mapping () =
  (* the j level (contiguous in B and C) must win dimension x; the k
     reduction must be Span(all)/Split *)
  let app = Ppat_apps.Gemm.app ~m:256 ~n:256 ~k:256 () in
  let n =
    match app.prog.Pat.steps with
    | [ Pat.Launch n ] -> n
    | _ -> assert false
  in
  let c =
    Ppat_core.Collect.collect
      ~params:(Runner.analysis_params app.prog app.params)
      ?bind:n.bind dev app.prog n.pat
  in
  let r = Ppat_core.Search.search ~model:Ppat_core.Cost_model.Soft dev c in
  Alcotest.(check bool) "j on x" true (r.mapping.(1).M.dim = M.X);
  (match r.mapping.(2).M.span with
   | M.Span_all | M.Split _ -> ()
   | M.Span _ -> Alcotest.fail "k level must synchronise")

let test_zip_with () =
  let b = Builder.create () in
  let top =
    Builder.zip_with b ~size:(Pat.Sconst 16) "xs" "ys" (fun x y ->
        Exp.Bin (Exp.Mul, x, y))
  in
  let prog =
    {
      Pat.pname = "zip";
      defaults = [];
      buffers =
        [
          Pat.buffer "xs" Ty.F64 [ Ty.Const 16 ] Pat.Input;
          Pat.buffer "ys" Ty.F64 [ Ty.Const 16 ] Pat.Input;
          Pat.buffer "out" Ty.F64 [ Ty.Const 16 ] Pat.Output;
        ];
      steps = [ Pat.Launch { bind = Some "out"; pat = top } ];
    }
  in
  let xs = Array.init 16 float_of_int in
  let ys = Array.make 16 2. in
  let data = [ ("xs", Host.F xs); ("ys", Host.F ys) ] in
  let cpu = Runner.run_cpu prog data in
  let gpu = Runner.run_gpu dev prog Strategy.Auto data in
  Alcotest.(check bool) "zipWith agrees" true
    (Runner.check prog ~expected:cpu.cpu_data ~actual:gpu.data = Ok ());
  Alcotest.(check (array (float 0.))) "values"
    (Array.init 16 (fun i -> 2. *. float_of_int i))
    (Host.get_f gpu.data "out")

let test_device_retarget () =
  (* the split factor chosen by ControlDOP follows the device's DOP window:
     the C2050 wants 14*1536 threads, the K20c 13*2048 *)
  let collect_for d =
    let app = Ppat_apps.Sum_rows_cols.sum_cols ~r:16384 ~c:64 () in
    let n =
      match app.prog.Pat.steps with
      | [ Pat.Launch n ] -> n
      | _ -> assert false
    in
    let c =
      Ppat_core.Collect.collect
        ~params:(Runner.analysis_params app.prog app.params)
        ?bind:n.bind d app.prog n.pat
    in
    Ppat_core.Search.search ~model:Ppat_core.Cost_model.Soft d c
  in
  let rk = collect_for Ppat_gpu.Device.k20c in
  let rc = collect_for Ppat_gpu.Device.c2050 in
  let split (m : M.t) =
    Array.fold_left
      (fun acc (d : M.decision) ->
        match d.M.span with M.Split k -> k | _ -> acc)
      0 m
  in
  Alcotest.(check bool) "both split" true (split rk.mapping > 0 && split rc.mapping > 0);
  Alcotest.(check bool) "dop in window (k20c)" true
    (rk.dop >= Ppat_gpu.Device.min_dop Ppat_gpu.Device.k20c / 2);
  Alcotest.(check bool) "dop in window (c2050)" true
    (rc.dop >= Ppat_gpu.Device.min_dop Ppat_gpu.Device.c2050 / 2);
  (* and the whole pipeline also runs on the second device *)
  let app = Ppat_apps.Sum_rows_cols.sum_cols ~r:512 ~c:64 () in
  let data = Ppat_apps.App.input_data app in
  let cpu = Runner.run_cpu ~params:app.params app.prog data in
  let r =
    Runner.run_gpu ~params:app.params Ppat_gpu.Device.c2050 app.prog
      Strategy.Auto data
  in
  Alcotest.(check bool) "c2050 run validates" true
    (Runner.check app.prog ~expected:cpu.cpu_data ~actual:r.data = Ok ())

(* A Jacobi-style flag loop whose body swaps its two buffers: each sweep
   writes next[j] = max of cur's 3-neighbourhood and raises the flag
   while anything changed. A swap inside a flag loop leaves no replayable
   plan, so staging takes the unstageable branch and re-stages every
   iteration, as a cold run does. *)
let test_unstageable_flag_loop () =
  let n = 16 in
  let b = Builder.create () in
  let sweep =
    let open Exp.Infix in
    Builder.foreach b ~label:"spread" ~size:(Pat.Sparam "N") (fun j ->
        [
          Pat.Let
            ( "m",
              max_
                (max_ (read "cur" [ max_ (i 0) (j - i 1) ]) (read "cur" [ j ]))
                (read "cur" [ min_ (p "NM1") (j + i 1) ]) );
          Pat.Store ("next", [ j ], v "m");
          Pat.If
            (v "m" <> read "cur" [ j ], [ Pat.Store ("flag", [ i 0 ], i 1) ], []);
        ])
  in
  let prog =
    {
      Pat.pname = "spread";
      defaults = [ ("N", n); ("NM1", n - 1) ];
      buffers =
        [
          Pat.buffer "cur" Ty.I32 [ Ty.Param "N" ] Pat.Input;
          Pat.buffer "next" Ty.I32 [ Ty.Param "N" ] Pat.Output;
          Pat.buffer "flag" Ty.I32 [ Ty.Const 1 ] Pat.Temp;
        ];
      steps =
        [
          Pat.While_flag
            {
              flag = "flag";
              max_iter = 64;
              body =
                [
                  Pat.Launch { bind = None; pat = sweep };
                  Pat.Swap ("cur", "next");
                ];
            };
        ];
    }
  in
  let data =
    [ ("cur", Host.I (Array.init n (fun j -> if j = 0 then 7 else 0))) ]
  in
  let decisions = Runner.decide_all dev prog [] Strategy.Auto in
  let stage engine =
    Runner.stage ~engine ~sim_jobs:1 dev prog ~decisions data
  in
  let sc = stage Ppat_kernel.Interp.Compiled in
  let sr = stage Ppat_kernel.Interp.Reference in
  Alcotest.(check bool) "no plan" true (Option.is_none sc.st_plan);
  Alcotest.(check (option string)) "the swap is named"
    (Some "buffer swap inside a flag loop") sc.st_unstageable;
  Alcotest.(check bool)
    (Printf.sprintf "more than one iteration (%d launches)"
       sc.st_result.kernels)
    true (sc.st_result.kernels > 1);
  let cpu = Runner.run_cpu prog data in
  Alcotest.(check bool) "outputs match the CPU oracle" true
    (Runner.check prog ~expected:cpu.cpu_data ~actual:sc.st_result.data
     = Ok ());
  Alcotest.(check bool) "engines' statistics bit-identical" true
    (Ppat_gpu.Stats.equal sc.st_result.stats sr.st_result.stats);
  Alcotest.(check bool) "engines' outputs identical" true
    (sc.st_result.data = sr.st_result.data)

let tests =
  [
    Alcotest.test_case "analysis parameters" `Quick test_analysis_params;
    Alcotest.test_case "input byte accounting" `Quick test_input_bytes;
    Alcotest.test_case "comparison modes" `Quick test_check_modes;
    Alcotest.test_case "GEMM all strategies" `Slow test_gemm;
    Alcotest.test_case "GEMM mapping decision" `Quick test_gemm_mapping;
    Alcotest.test_case "zipWith" `Quick test_zip_with;
    Alcotest.test_case "device retargeting" `Quick test_device_retarget;
    Alcotest.test_case "unstageable flag loop re-stages" `Quick
      test_unstageable_flag_loop;
  ]
