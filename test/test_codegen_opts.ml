(* Code-generation options: ordered filter via scan, warp-synchronous
   reductions, shared-memory prefetch — each must preserve semantics and
   change the generated code in the expected direction. *)
open Ppat_ir
module Lower = Ppat_codegen.Lower
module Scan = Ppat_codegen.Scan
module Runner = Ppat_harness.Runner
module Strategy = Ppat_core.Strategy
module Kir = Ppat_kernel.Kir
module Memory = Ppat_gpu.Memory

let dev = Ppat_gpu.Device.k20c

let filter_app n threshold =
  let b = Builder.create () in
  let top =
    Builder.filter b ~label:"keep" ~size:(Pat.Sconst n)
      ~pred:(fun ix ->
        Exp.Cmp (Exp.Lt, Exp.Read ("src", [ ix ]), Exp.Float threshold))
      (fun ix -> Exp.Read ("src", [ ix ]))
  in
  ( {
      Pat.pname = "ofilt";
      defaults = [];
      buffers =
        [
          Pat.buffer "src" Ty.F64 [ Ty.Const n ] Pat.Input;
          Pat.buffer "out" Ty.F64 [ Ty.Const n ] Pat.Output;
          Pat.buffer "out_count" Ty.I32 [ Ty.Const 1 ] Pat.Output;
        ];
      steps = [ Pat.Launch { bind = Some "out"; pat = top } ];
    },
    [ ("src", Host.F (Ppat_apps.Workloads.farray ~seed:n n)) ] )

let test_ordered_filter_exact () =
  (* the scan-based filter preserves input order: compare WITHOUT sorting *)
  List.iter
    (fun n ->
      let prog, data = filter_app n 0.5 in
      let cpu = Runner.run_cpu prog data in
      let opts = { Lower.default_options with ordered_filter = true } in
      let gpu = Runner.run_gpu ~opts dev prog Strategy.Auto data in
      match
        Runner.check ~eps:1e-12 prog ~expected:cpu.cpu_data ~actual:gpu.data
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "n=%d: %s" n e)
    [ 1; 7; 255; 256; 257; 1000; 70_000 ]
(* 70_000 > 256^2 exercises two levels of scan recursion *)

let test_ordered_filter_kernel_count () =
  let prog, data = filter_app 1000 0.5 in
  ignore data;
  let n = match prog.steps with [ Pat.Launch n ] -> n | _ -> assert false in
  let opts = { Lower.default_options with ordered_filter = true } in
  let l =
    Lower.lower dev ~opts ~params:[] prog n
      [| { Ppat_core.Mapping.dim = X; bsize = 256; span = Ppat_core.Mapping.span1 } |]
  in
  (* flags + (block-scan + sums-scan + add + total) + scatter *)
  Alcotest.(check bool) "multi-kernel" true (List.length l.launches >= 5)

let test_scan_direct () =
  (* drive the scan substrate directly on random data *)
  List.iter
    (fun n ->
      let src = Ppat_apps.Workloads.iarray ~seed:n ~bound:5 n in
      let mem = Memory.create () in
      ignore (Memory.load mem "src" (Host.I src));
      ignore (Memory.alloc_i mem "dst" n);
      ignore (Memory.alloc_i mem "total" 1);
      let launches, temps =
        Scan.exclusive ~name_prefix:"t" ~src:"src" ~dst:"dst" ~total:"total"
          ~n ~kparams:[]
      in
      List.iter (fun (tn, _, ts) -> ignore (Memory.alloc_i mem tn ts)) temps;
      List.iter (fun l -> ignore (Ppat_kernel.Interp.run dev mem l)) launches;
      let dst = match Memory.to_host mem "dst" with Host.I a -> a | _ -> assert false in
      let total = match Memory.to_host mem "total" with Host.I a -> a | _ -> assert false in
      let acc = ref 0 in
      Array.iteri
        (fun i x ->
          if dst.(i) <> !acc then
            Alcotest.failf "scan n=%d mismatch at %d: %d <> %d" n i dst.(i)
              !acc;
          acc := !acc + x)
        src;
      Alcotest.(check int) (Printf.sprintf "total n=%d" n) !acc total.(0))
    [ 1; 3; 256; 300; 65_536; 70_001 ]

let test_warp_sync_equivalence () =
  (* dropping intra-warp barriers must not change results, only barriers *)
  let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:128 ~c:512 () in
  let data = Ppat_apps.App.input_data app in
  let cpu = Runner.run_cpu ~params:app.params app.prog data in
  let run ws =
    Runner.run_gpu
      ~opts:{ Lower.default_options with warp_sync = ws }
      ~params:app.params dev app.prog Strategy.Thread_block_thread data
  in
  let on = run true and off = run false in
  List.iter
    (fun (r : Runner.gpu_result) ->
      match
        Runner.check ~eps:1e-9 app.prog ~expected:cpu.cpu_data ~actual:r.data
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ on; off ];
  Alcotest.(check bool) "fewer barriers with warp_sync" true
    (on.stats.syncs < off.stats.syncs)

let test_prefetch_equivalence () =
  let app = Ppat_apps.Gaussian.app ~n:48 Ppat_apps.Gaussian.R in
  let data = Ppat_apps.App.input_data app in
  let cpu = Runner.run_cpu ~params:app.params app.prog data in
  List.iter
    (fun pf ->
      let r =
        Runner.run_gpu
          ~opts:{ Lower.default_options with smem_prefetch = pf }
          ~params:app.params dev app.prog Strategy.Auto data
      in
      match
        Runner.check ~eps:1e-5 app.prog ~expected:cpu.cpu_data ~actual:r.data
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "prefetch=%b: %s" pf e)
    [ true; false ]

let test_prefetch_emits_smem () =
  (* under a y-major mapping, the invariant mult[i] read is staged *)
  let app = Ppat_apps.Gaussian.app ~n:64 Ppat_apps.Gaussian.R in
  let n2 =
    List.find
      (fun (n : Pat.nested) -> n.pat.Pat.label = "fan2_r")
      (Pat.launches app.prog)
  in
  let params = ("t", 5) :: Ppat_apps.App.resolved_params app in
  let m =
    [|
      { Ppat_core.Mapping.dim = Y; bsize = 4; span = Ppat_core.Mapping.span1 };
      { Ppat_core.Mapping.dim = X; bsize = 64; span = Ppat_core.Mapping.span1 };
    |]
  in
  let with_pf =
    Lower.lower dev
      ~opts:{ Lower.default_options with smem_prefetch = true }
      ~params app.prog n2 m
  in
  let without =
    Lower.lower dev
      ~opts:{ Lower.default_options with smem_prefetch = false }
      ~params app.prog n2 m
  in
  let smem_count (l : Lower.lowered) =
    List.length (List.hd l.launches).Kir.kernel.Kir.smem
  in
  Alcotest.(check bool) "prefetch adds a shared array" true
    (smem_count with_pf > smem_count without)

let tests =
  [
    Alcotest.test_case "ordered filter is exact" `Slow
      test_ordered_filter_exact;
    Alcotest.test_case "ordered filter kernel expansion" `Quick
      test_ordered_filter_kernel_count;
    Alcotest.test_case "scan substrate" `Slow test_scan_direct;
    Alcotest.test_case "warp-sync equivalence" `Quick
      test_warp_sync_equivalence;
    Alcotest.test_case "prefetch equivalence" `Quick test_prefetch_equivalence;
    Alcotest.test_case "prefetch emits shared staging" `Quick
      test_prefetch_emits_smem;
  ]
