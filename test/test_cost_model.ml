(* The pluggable cost models: the Soft model must reproduce the seed
   search comparator bit for bit, the analytical predictor must rank the
   mapping space like the simulator does (Spearman), and no model may ever
   select a hard-infeasible candidate. *)
module M = Ppat_core.Mapping
module Collect = Ppat_core.Collect
module Search = Ppat_core.Search
module Dop = Ppat_core.Dop
module Cost_model = Ppat_core.Cost_model
module Predict = Ppat_core.Predict
module Runner = Ppat_harness.Runner
module A = Ppat_apps

let dev = Ppat_gpu.Device.k20c

(* every distinct top-level pattern of an app, with its collection *)
let collections (app : A.App.t) =
  let ap = Runner.analysis_params app.prog app.params in
  List.map
    (fun (n : Ppat_ir.Pat.nested) ->
      ( n.pat.Ppat_ir.Pat.pid,
        n.pat.Ppat_ir.Pat.label,
        Collect.collect ~params:ap ?bind:n.bind dev app.prog n.pat ))
    (Ppat_ir.Pat.launches app.prog)

(* a spread of bench apps at sizes small enough for exhaustive checks *)
let bench_apps () : (string * A.App.t) list =
  [
    ("sum_rows", A.Sum_rows_cols.sum_rows ~r:512 ~c:128 ());
    ("sum_cols", A.Sum_rows_cols.sum_cols ~r:512 ~c:128 ());
    ("sum_weighted_rows", A.Sum_rows_cols.sum_weighted_rows ~r:512 ~c:128 ());
    ("sum_weighted_cols", A.Sum_rows_cols.sum_weighted_cols ~r:128 ~c:512 ());
    ("nearest_neighbor", A.Nearest_neighbor.app ~n:4096 ());
    ("bfs", A.Bfs.app ~nodes:1024 ~avg_degree:4 ());
    ("gemm", A.Gemm.app ~m:32 ~n:32 ~k:32 ());
    ("pathfinder", A.Pathfinder.app ~rows:8 ~cols:1024 ());
    ("qpscd", A.Qpscd.app ~samples:256 ~dim:256 ());
    ("naive_bayes", A.Naive_bayes.app ~docs:256 ~words:128 ());
  ]

(* ----- (a) the Soft model is the seed search, bit for bit ----- *)

(* the seed comparator, reimplemented independently of Cost_model's
   ranking keys: best score, ties to higher DOP, then to thread blocks
   nearest 256 (t = |log2 tpb - 8|), then first in enumeration order *)
let seed_search (c : Collect.t) =
  let proximity m =
    abs
      (int_of_float
         (Float.round (Float.log2 (float_of_int (M.threads_per_block m))))
      - 8)
  in
  let best =
    List.fold_left
      (fun best (m, (e : Cost_model.eval)) ->
        let s = e.soft_score in
        let d = M.dop ~sizes:c.level_sizes m in
        let t = proximity m in
        match best with
        | None -> Some (m, s, d, t)
        | Some (_, bs, bd, bt) ->
          if s > bs || (s = bs && d > bd) || (s = bs && d = bd && t < bt)
          then Some (m, s, d, t)
          else best)
      None
      (Search.enumerate ~model:Cost_model.Soft dev c)
  in
  match best with
  | None -> Alcotest.fail "no hard-feasible candidate"
  | Some (m, s, _, _) -> (Dop.control dev ~sizes:c.level_sizes m, s)

let test_soft_reproduces_seed () =
  List.iter
    (fun (name, app) ->
      List.iter
        (fun (_, label, c) ->
          let expect_m, expect_s = seed_search c in
          let r = Search.search ~model:Cost_model.Soft dev c in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s mapping identical" name label)
            true
            (M.equal r.mapping expect_m);
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s/%s score identical" name label)
            expect_s r.score)
        (collections app))
    (bench_apps ())

(* ----- (b) predictor-vs-simulator rank correlation ----- *)

(* simulate a strided sample of the target pattern's mapping space and
   correlate predicted cycles with the simulated seconds of that
   pattern's launches (other patterns keep their soft-auto mapping and
   contribute a constant) *)
let predictor_rho (app : A.App.t) =
  let cols = collections app in
  let base =
    List.map
      (fun (pid, _, c) ->
        (pid, (Search.search ~model:Cost_model.Soft dev c).Search.mapping))
      cols
  in
  (* richest mapping space is the interesting target *)
  let tpid, tlabel, tc, cands =
    List.fold_left
      (fun (bp, bl, bc, bm) (pid, label, c) ->
        let ms =
          List.map fst (Search.enumerate ~model:Cost_model.Soft dev c)
        in
        if List.length ms > List.length bm then (pid, label, c, ms)
        else (bp, bl, bc, bm))
      (let _, _, c = List.hd cols in
       (-1, "", c, []))
      cols
  in
  let cands = Array.of_list cands in
  let n = Array.length cands in
  let stride = max 1 (n / 10) in
  let data = A.App.input_data app in
  let pred = ref [] and sim = ref [] in
  let i = ref 0 in
  while !i < n do
    let m = cands.(!i) in
    (match
       Runner.run_gpu_mapped ~params:app.params dev app.prog
         (fun pid -> if pid = tpid then m else List.assoc pid base)
         data
     with
     | r ->
       let secs =
         List.fold_left
           (fun acc (k : Ppat_profile.Record.kernel) ->
             if k.label = tlabel then
               acc +. k.breakdown.Ppat_gpu.Timing.seconds
             else acc)
           0. r.profile
       in
       sim := secs :: !sim;
       pred := (Predict.predict dev tc m).Predict.cycles :: !pred
     | exception Ppat_codegen.Lower.Unsupported _ -> ());
    i := !i + stride
  done;
  ( Cost_model.spearman
      (Array.of_list (List.rev !pred))
      (Array.of_list (List.rev !sim)),
    List.length !sim )

let test_predictor_rank_correlation () =
  List.iter
    (fun (name, app) ->
      let rho, samples = predictor_rho app in
      Format.printf "%s: spearman %.3f over %d mappings@." name rho samples;
      Alcotest.(check bool)
        (Printf.sprintf "%s: >= 8 mappings simulated" name)
        true (samples >= 8);
      Alcotest.(check bool)
        (Printf.sprintf "%s: spearman %.3f >= 0.7" name rho)
        true (rho >= 0.7))
    [
      ("sum_rows", A.Sum_rows_cols.sum_rows ~r:1024 ~c:128 ());
      ("nearest_neighbor", A.Nearest_neighbor.app ~n:8192 ());
      ("naive_bayes", A.Naive_bayes.app ~docs:512 ~words:256 ());
    ]

(* ----- (c) no model selects a hard-infeasible candidate ----- *)

let test_models_feasible () =
  List.iter
    (fun (name, app) ->
      List.iter
        (fun (_, label, c) ->
          List.iter
            (fun model ->
              let r = Search.search ~model dev c in
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s %s raw feasible" name label
                   (Cost_model.name model))
                []
                (Search.hard_violations dev r.raw_mapping);
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s %s shipped within limits" name label
                   (Cost_model.name model))
                true
                (M.threads_per_block r.mapping
                <= dev.Ppat_gpu.Device.max_threads_per_block))
            Cost_model.all)
        (collections app))
    (bench_apps ())

(* ----- plumbing: names, env default, spearman ----- *)

let test_names_round_trip () =
  List.iter
    (fun m ->
      match Cost_model.of_string (Cost_model.name m) with
      | Ok m' -> Alcotest.(check bool) "round trip" true (m = m')
      | Error e -> Alcotest.fail e)
    Cost_model.all;
  (match Cost_model.of_string "no-such-model" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bogus name accepted")

(* the undocumented aliases (weights, soft_weights, timing, predict) are
   gone: each is an error naming the value and the accepted names *)
let test_retired_aliases () =
  List.iter
    (fun alias ->
      match Cost_model.of_string alias with
      | Ok m -> Alcotest.failf "%S accepted as %s" alias (Cost_model.name m)
      | Error e ->
        Alcotest.(check bool) (alias ^ " named") true
          (Astring_like.contains e (Printf.sprintf "%S" alias));
        Alcotest.(check bool) (alias ^ " lists the models") true
          (Astring_like.contains e "soft|analytical|hybrid"))
    [ "weights"; "soft_weights"; "timing"; "predict" ]

let test_spearman () =
  let check msg expect a b =
    Alcotest.(check (float 1e-9)) msg expect
      (Cost_model.spearman (Array.of_list a) (Array.of_list b))
  in
  (* monotone agreement, regardless of the scale *)
  check "monotone" 1. [ 1.; 2.; 3.; 4. ] [ 10.; 100.; 1000.; 10000. ];
  check "anti-monotone" (-1.) [ 1.; 2.; 3.; 4. ] [ 4.; 3.; 2.; 1. ];
  (* one disagreeing pair of four *)
  check "partial" 0.8 [ 1.; 2.; 3.; 4. ] [ 1.; 2.; 4.; 3. ];
  Alcotest.(check bool) "degenerate is nan" true
    (Float.is_nan (Cost_model.spearman [| 1.; 1. |] [| 1.; 2. |]))

let tests =
  [
    Alcotest.test_case "Soft model reproduces the seed search" `Quick
      test_soft_reproduces_seed;
    Alcotest.test_case "predictor rank correlation >= 0.7" `Slow
      test_predictor_rank_correlation;
    Alcotest.test_case "no model selects hard-infeasible" `Quick
      test_models_feasible;
    Alcotest.test_case "model names round-trip" `Quick test_names_round_trip;
    Alcotest.test_case "retired aliases are named errors" `Quick
      test_retired_aliases;
    Alcotest.test_case "spearman rank correlation" `Quick test_spearman;
  ]
