(* Code generation: kernel structure per mapping decision, CUDA emission,
   split/combiner and multi-kernel expansions (paper Sections IV-E, V). *)
open Ppat_ir
module M = Ppat_core.Mapping
module Lower = Ppat_codegen.Lower
module Cuda = Ppat_codegen.Cuda_emit
module Kir = Ppat_kernel.Kir

let dev = Ppat_gpu.Device.k20c
let d dim bsize span = { M.dim; bsize; span }
let contains = Astring_like.contains

let launch_of (app : Ppat_apps.App.t) =
  match app.prog.Pat.steps with
  | Pat.Launch n :: _ -> n
  | _ -> assert false

let test_fig9_shape () =
  (* sumRows under the paper's mapping [DimY,64,span(1)]/[DimX,32,span(all)]
     must produce the Figure 9 ingredients: a shared array, a strided
     accumulation loop and __syncthreads *)
  let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:4096 ~c:512 () in
  let n = launch_of app in
  let mapping = [| d M.Y 64 M.span1; d M.X 32 M.Span_all |] in
  let l = Lower.lower dev ~params:app.params app.prog n mapping in
  (match l.launches with
   | [ one ] ->
     Alcotest.(check (pair int int))
       "block (32, 64)" (32, 64)
       (let x, y, _ = one.Kir.block in
        (x, y));
     Alcotest.(check int) "grid y = 4096/64" 64
       (let _, y, _ = one.Kir.grid in
        y);
     let cuda = Cuda.kernel ~prog:app.prog one.Kir.kernel in
     Alcotest.(check bool) "__shared__" true (contains cuda "__shared__");
     Alcotest.(check bool) "__syncthreads" true
       (contains cuda "__syncthreads()");
     Alcotest.(check bool) "global signature" true
       (contains cuda "__global__ void");
     Alcotest.(check bool) "threadIdx used" true (contains cuda "threadIdx.x")
   | _ -> Alcotest.fail "expected exactly one kernel")

(* the shuffle lowering of sumRows under the default cost model, as
   [ppat cuda sum_rows --shuffle] prints it: a __shfl_down_sync register
   tree, the lane-0 broadcast, and no shared memory or barrier *)
let test_cuda_shuffle () =
  let app = Ppat_apps.Sum_rows_cols.sum_rows () in
  let opts = { Lower.default_options with shuffle = true } in
  let params = Ppat_harness.Runner.analysis_params app.prog app.params in
  let decisions =
    Ppat_harness.Runner.decide_all ~model:Ppat_core.Cost_model.Soft ~opts dev
      app.prog app.params Ppat_core.Strategy.Auto
  in
  let n = launch_of app in
  let m = (List.assoc n.pat.Pat.pid decisions).Ppat_core.Strategy.mapping in
  match (Lower.lower dev ~opts ~params app.prog n m).launches with
  | [ one ] ->
    let cuda = Cuda.kernel ~prog:app.prog one.Kir.kernel in
    Alcotest.(check bool) "__shfl_down_sync" true
      (contains cuda "__shfl_down_sync(0xffffffff, ");
    Alcotest.(check bool) "lane-0 broadcast" true
      (contains cuda "= __shfl_sync(0xffffffff, acc_row_sum, 0);");
    Alcotest.(check bool) "no __syncthreads" false
      (contains cuda "__syncthreads()");
    Alcotest.(check bool) "no __shared__" false (contains cuda "__shared__")
  | _ -> Alcotest.fail "expected exactly one kernel"

let test_kernel_validates () =
  let app = Ppat_apps.Sum_rows_cols.sum_weighted_cols ~r:64 ~c:128 () in
  let n = launch_of app in
  let mapping = [| d M.X 32 M.span1; d M.Y 32 M.Span_all |] in
  let l = Lower.lower dev ~params:app.params app.prog n mapping in
  List.iter
    (fun (one : Kir.launch) ->
      match Kir.validate one.kernel with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid kernel: %s" e)
    l.launches

let test_split_adds_combiner () =
  let app = Ppat_apps.Sum_rows_cols.sum_cols ~r:4096 ~c:64 () in
  let n = launch_of app in
  let mapping = [| d M.X 32 M.span1; d M.Y 32 (M.Split 4) |] in
  let l = Lower.lower dev ~params:app.params app.prog n mapping in
  Alcotest.(check int) "main + combiner" 2 (List.length l.launches);
  Alcotest.(check bool) "partial buffer allocated" true
    (List.exists (fun (t : Lower.temp) -> t.telems = 64 * 4) l.temps)

let test_unsupported_split_demotes () =
  (* the weighted variant has a nested local map: the split structure is
     rejected and demoted to span(all) with a note *)
  let app = Ppat_apps.Sum_rows_cols.sum_weighted_cols ~r:64 ~c:128 () in
  let n = launch_of app in
  let mapping = [| d M.X 32 M.span1; d M.Y 32 (M.Split 4) |] in
  let l = Lower.lower dev ~params:app.params app.prog n mapping in
  Alcotest.(check int) "single kernel after demotion" 1
    (List.length l.launches);
  Alcotest.(check bool) "note recorded" true (l.notes <> [])

let test_prealloc_layouts () =
  (* the temporary of sumWeightedCols flips its layout with the mapping:
     under Prealloc (outer-major) the inner index is contiguous; under
     Prealloc_opt with the outer level on x, the outer index is *)
  let app = Ppat_apps.Sum_rows_cols.sum_weighted_cols ~r:64 ~c:128 () in
  let n = launch_of app in
  let mapping = [| d M.X 32 M.span1; d M.Y 32 M.Span_all |] in
  let lower mode =
    let opts = { Lower.default_options with alloc_mode = mode } in
    let l = Lower.lower dev ~opts ~params:app.params app.prog n mapping in
    Cuda.kernel ~prog:app.prog (List.hd l.launches).Kir.kernel
  in
  let fixed = lower Lower.Prealloc and opt = lower Lower.Prealloc_opt in
  Alcotest.(check bool) "sources differ" true (fixed <> opt);
  let m = lower Lower.Malloc in
  Alcotest.(check bool) "malloc event present" true (contains m "malloc")

let test_temp_allocation_size () =
  let app = Ppat_apps.Sum_rows_cols.sum_weighted_rows ~r:64 ~c:128 () in
  let n = launch_of app in
  let mapping = [| d M.Y 8 M.span1; d M.X 32 M.Span_all |] in
  let l = Lower.lower dev ~params:app.params app.prog n mapping in
  Alcotest.(check bool) "temp covers outer domain" true
    (List.exists (fun (t : Lower.temp) -> t.telems = 64 * 128) l.temps)

let test_filter_kernels () =
  let b = Builder.create () in
  let top =
    Builder.filter b ~label:"keep" ~size:(Pat.Sconst 100)
      ~pred:(fun i -> Exp.Cmp (Exp.Lt, i, Exp.Int 50))
      (fun i -> Exp.Un (Exp.I2f, i))
  in
  let prog =
    {
      Pat.pname = "f";
      defaults = [];
      buffers =
        [
          Pat.buffer "out" Ty.F64 [ Ty.Const 100 ] Pat.Output;
          Pat.buffer "out_count" Ty.I32 [ Ty.Const 1 ] Pat.Output;
        ];
      steps = [ Pat.Launch { bind = Some "out"; pat = top } ];
    }
  in
  let n = { Pat.bind = Some "out"; pat = top } in
  let l = Lower.lower dev ~params:[] prog n [| d M.X 128 M.span1 |] in
  Alcotest.(check int) "zero + main" 2 (List.length l.launches)

let test_group_by_kernels () =
  let app = Ppat_apps.Naive_bayes.app ~docs:64 ~words:16 () in
  let n =
    match List.rev app.prog.Pat.steps with
    | Pat.Launch n :: _ -> n
    | _ -> assert false
  in
  let l = Lower.lower dev ~params:app.params app.prog n [| d M.X 128 M.span1 |] in
  Alcotest.(check int) "zero + histogram + scan + scatter" 4
    (List.length l.launches)

let test_mapping_length_mismatch () =
  let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:16 ~c:16 () in
  let n = launch_of app in
  match Lower.lower dev ~params:app.params app.prog n [| d M.X 32 M.span1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_cuda_launch_comment () =
  let app = Ppat_apps.Nearest_neighbor.app ~n:1000 () in
  let n = launch_of app in
  let l = Lower.lower dev ~params:app.params app.prog n [| d M.X 256 M.span1 |] in
  let c = Cuda.launch_comment (List.hd l.launches) in
  Alcotest.(check bool) "grid in comment" true (contains c "dim3(4,1,1)");
  Alcotest.(check bool) "block in comment" true (contains c "dim3(256,1,1)")

(* every decision the search ships, under every cost model, is a mapping
   the lowering supports: DOP control must not split a level holding a
   dynamically-sized pattern *)
let test_searched_decisions_lower () =
  List.iter
    (fun (name, mk) ->
      let app : Ppat_apps.App.t = mk () in
      let params = Ppat_harness.Runner.analysis_params app.prog app.params in
      List.iter
        (fun model ->
          let decisions =
            Ppat_harness.Runner.decide_all ~model ~opts:Lower.default_options
              dev app.prog app.params Ppat_core.Strategy.Auto
          in
          List.iter
            (fun (n : Pat.nested) ->
              let m =
                (List.assoc n.pat.Pat.pid decisions).Ppat_core.Strategy.mapping
              in
              match Lower.lower dev ~params app.prog n m with
              | _ -> ()
              | exception Lower.Unsupported e ->
                Alcotest.failf "%s, %s model, %s: %s" name
                  (Ppat_core.Cost_model.name model)
                  (M.to_string m) e)
            (Pat.launches app.prog))
        Ppat_core.Cost_model.all)
    Ppat_apps.Registry.all

let tests =
  [
    Alcotest.test_case "figure 9 kernel shape" `Quick test_fig9_shape;
    Alcotest.test_case "generated kernels validate" `Quick test_kernel_validates;
    Alcotest.test_case "split adds a combiner" `Quick test_split_adds_combiner;
    Alcotest.test_case "unsupported split demotes" `Quick
      test_unsupported_split_demotes;
    Alcotest.test_case "prealloc layout flips" `Quick test_prealloc_layouts;
    Alcotest.test_case "temp allocation size" `Quick test_temp_allocation_size;
    Alcotest.test_case "filter kernel expansion" `Quick test_filter_kernels;
    Alcotest.test_case "group_by kernel expansion" `Quick test_group_by_kernels;
    Alcotest.test_case "mapping arity checked" `Quick
      test_mapping_length_mismatch;
    Alcotest.test_case "launch comment" `Quick test_cuda_launch_comment;
    Alcotest.test_case "CUDA of a shuffle reduction" `Quick test_cuda_shuffle;
    Alcotest.test_case "searched decisions lower under every model" `Quick
      test_searched_decisions_lower;
  ]
