(* The mapping analysis end to end: constraints, search, DOP control,
   strategy presets (paper Section IV). *)
module M = Ppat_core.Mapping
module Collect = Ppat_core.Collect
module Search = Ppat_core.Search
module Strategy = Ppat_core.Strategy
module Constr = Ppat_core.Constr
module Dop = Ppat_core.Dop

let dev = Ppat_gpu.Device.k20c

(* analyse the first (deepest-first) top-level launch of the app *)
let collect_of (app : Ppat_apps.App.t) =
  let prog = app.prog in
  let deepest found (n : Ppat_ir.Pat.nested) =
    let d = (Ppat_ir.Levels.of_top n.pat).Ppat_ir.Levels.depth in
    match found with Some (d0, _) when d0 >= d -> found | _ -> Some (d, n)
  in
  match List.fold_left deepest None (Ppat_ir.Pat.launches prog) with
  | Some (_, n) ->
    Collect.collect
      ~params:(Ppat_harness.Runner.analysis_params prog app.params)
      ?bind:n.bind dev prog n.pat
  | None -> assert false

let test_sum_rows_mapping () =
  (* inner (column) accesses are contiguous: the reduce level must land on
     dimension x with a warp-multiple block (Figure 9) *)
  let c = collect_of (Ppat_apps.Sum_rows_cols.sum_rows ~r:4096 ~c:512 ()) in
  let r = Search.search ~model:Ppat_core.Cost_model.Soft dev c in
  Alcotest.(check bool) "L1 on x" true (r.mapping.(1).M.dim = M.X);
  Alcotest.(check bool) "L0 not on x" true (r.mapping.(0).M.dim <> M.X);
  Alcotest.(check int) "L1 warp multiple" 0
    (r.mapping.(1).M.bsize mod dev.warp_size);
  (match r.mapping.(1).M.span with
   | M.Span_all | M.Split _ -> ()
   | M.Span _ -> Alcotest.fail "reduce level must be span(all) or split")

let test_sum_cols_mapping () =
  (* the outer (column) index is the contiguous one: dimensions flip *)
  let c = collect_of (Ppat_apps.Sum_rows_cols.sum_cols ~r:4096 ~c:512 ()) in
  let r = Search.search ~model:Ppat_core.Cost_model.Soft dev c in
  Alcotest.(check bool) "L0 on x" true (r.mapping.(0).M.dim = M.X);
  Alcotest.(check int) "L0 warp multiple" 0
    (r.mapping.(0).M.bsize mod dev.warp_size)

let test_hard_span_all () =
  let c = collect_of (Ppat_apps.Sum_rows_cols.sum_rows ()) in
  (match c.span_all_required.(1) with
   | Some (Constr.Global_sync _) -> ()
   | _ -> Alcotest.fail "reduce level must require span(all)");
  Alcotest.(check bool) "map level free" true
    (c.span_all_required.(0) = None)

let test_dynamic_forces_span_all () =
  let c =
    collect_of (Ppat_apps.Bfs.app ~nodes:1024 ~avg_degree:4 ())
  in
  match c.span_all_required.(1) with
  | Some (Constr.Dynamic_size _) -> ()
  | _ -> Alcotest.fail "dynamic level must require span(all)"

let test_enumerate_feasible () =
  let c = collect_of (Ppat_apps.Sum_rows_cols.sum_rows ()) in
  let all = Search.enumerate dev c in
  Alcotest.(check bool) "non-empty" true (List.length all > 100);
  List.iter
    (fun (m, _) ->
      Alcotest.(check bool) "block limit" true
        (M.threads_per_block m <= dev.max_threads_per_block);
      (* hard span requirement respected by construction *)
      match m.(1).M.span with
      | M.Span_all -> ()
      | _ -> Alcotest.fail "candidate violates hard constraint")
    all

let test_search_deterministic () =
  let c = collect_of (Ppat_apps.Sum_rows_cols.sum_cols ()) in
  let a = Search.search dev c and b = Search.search dev c in
  Alcotest.(check bool) "same mapping" true (M.equal a.mapping b.mapping);
  Alcotest.(check (float 0.)) "same score" a.score b.score

let test_dop_control_split () =
  (* skewed sumCols: few columns, many rows -> DOP below minimum without a
     split (paper Section IV-D) *)
  let c = collect_of (Ppat_apps.Sum_rows_cols.sum_cols ~r:16384 ~c:64 ()) in
  let r = Search.search ~model:Ppat_core.Cost_model.Soft dev c in
  Alcotest.(check bool) "dop raised" true
    (r.dop >= Ppat_gpu.Device.min_dop dev / 2);
  let has_split =
    Array.exists
      (fun (d : M.decision) ->
        match d.M.span with M.Split _ -> true | _ -> false)
      r.mapping
  in
  Alcotest.(check bool) "split introduced" true has_split

let test_dop_control_span_n () =
  let d dim bsize span = { M.dim; bsize; span } in
  let sizes = [| 100_000_000 |] in
  let m = Dop.control dev ~sizes [| d M.X 256 M.span1 |] in
  (match m.(0).M.span with
   | M.Span n ->
     Alcotest.(check bool) "span(n) coarsened" true (n >= 2);
     Alcotest.(check bool) "dop within max" true
       (M.dop ~sizes m <= Ppat_gpu.Device.max_dop dev * 2)
   | _ -> Alcotest.fail "expected Span(n)")

let test_dop_control_noop () =
  let d dim bsize span = { M.dim; bsize; span } in
  let sizes = [| 100_000 |] in
  let m0 = [| d M.X 256 M.span1 |] in
  let m = Dop.control dev ~sizes m0 in
  Alcotest.(check bool) "healthy dop untouched" true (M.equal m m0)

let test_presets () =
  let c = collect_of (Ppat_apps.Sum_rows_cols.sum_rows ()) in
  let tbt = Strategy.decide dev c Strategy.Thread_block_thread in
  Alcotest.(check bool) "tbt inner 1024 on x" true
    (tbt.mapping.(1).M.dim = M.X && tbt.mapping.(1).M.bsize = 1024);
  let warp = Strategy.decide dev c Strategy.Warp_based in
  Alcotest.(check bool) "warp inner 32 / outer 16" true
    (warp.mapping.(1).M.bsize = 32 && warp.mapping.(0).M.bsize = 16);
  let oned = Strategy.decide dev c Strategy.One_d in
  Alcotest.(check bool) "1d serial inner" true
    (oned.mapping.(1).M.bsize = 1);
  (* presets still respect hard span(all) on the reduce level *)
  List.iter
    (fun (dcs : Strategy.decision) ->
      match dcs.mapping.(1).M.span with
      | M.Span_all -> ()
      | _ -> Alcotest.fail "preset violates hard constraint")
    [ tbt; warp; oned ]

let test_score_rules () =
  let d dim bsize span = { M.dim; bsize; span } in
  (* an access striding 1 in level 1 and C (say 512) in level 0 *)
  let coal =
    Constr.Coalesce
      { strides = [ (0, Some 512); (1, Some 1) ]; buf = "m"; weight = 10. }
  in
  let ok = [| d M.Y 8 M.span1; d M.X 64 M.Span_all |] in
  let wrong_dim = [| d M.X 8 M.span1; d M.Y 64 M.Span_all |] in
  let bad_bsize = [| d M.Y 8 M.span1; d M.X 48 M.Span_all |] in
  Alcotest.(check bool) "satisfied" true (Ppat_core.Score.soft_satisfied dev ok coal);
  Alcotest.(check bool) "wrong dim" false
    (Ppat_core.Score.soft_satisfied dev wrong_dim coal);
  Alcotest.(check bool) "bad bsize" false
    (Ppat_core.Score.soft_satisfied dev bad_bsize coal);
  (* an access invariant in level 1 broadcasts when level 1 is on x *)
  let bcast =
    Constr.Coalesce
      { strides = [ (0, Some 1); (1, Some 0) ]; buf = "v"; weight = 10. }
  in
  Alcotest.(check bool) "broadcast satisfied" true
    (Ppat_core.Score.soft_satisfied dev
       [| d M.Y 8 M.span1; d M.X 64 M.Span_all |]
       bcast);
  let scatter =
    Constr.Coalesce
      { strides = [ (0, Some 1); (1, None) ]; buf = "w"; weight = 10. }
  in
  Alcotest.(check bool) "unknown stride on x fails" false
    (Ppat_core.Score.soft_satisfied dev
       [| d M.Y 8 M.span1; d M.X 64 M.Span_all |]
       scatter);
  let mb = Constr.Min_block { weight = 1. } in
  Alcotest.(check bool) "min block ok" true
    (Ppat_core.Score.soft_satisfied dev ok mb);
  Alcotest.(check bool) "min block small" false
    (Ppat_core.Score.soft_satisfied dev [| d M.X 32 M.span1 |] mb)

let tests =
  [
    Alcotest.test_case "sumRows mapping" `Quick test_sum_rows_mapping;
    Alcotest.test_case "sumCols mapping flips dims" `Quick test_sum_cols_mapping;
    Alcotest.test_case "reduce forces span(all)" `Quick test_hard_span_all;
    Alcotest.test_case "dynamic size forces span(all)" `Quick
      test_dynamic_forces_span_all;
    Alcotest.test_case "enumerate is hard-feasible" `Quick test_enumerate_feasible;
    Alcotest.test_case "search deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "ControlDOP introduces split" `Quick test_dop_control_split;
    Alcotest.test_case "ControlDOP coarsens span" `Quick test_dop_control_span_n;
    Alcotest.test_case "ControlDOP no-op when healthy" `Quick test_dop_control_noop;
    Alcotest.test_case "fixed-strategy presets" `Quick test_presets;
    Alcotest.test_case "soft-constraint satisfaction" `Quick test_score_rules;
  ]
