(* Per-access-site cost attribution: the Site_stats matrix must be
   engine- and jobs-invariant, its column totals must equal the aggregate
   Stats.t counters bit for bit, and nothing may leak into the overflow
   row on code the annotator claims to understand. Also unit-tests the
   per-domain metrics registry the engines report into. *)
module Kir = Ppat_kernel.Kir
module Site = Ppat_kernel.Site
module Interp = Ppat_kernel.Interp
module Stats = Ppat_gpu.Stats
module Site_stats = Ppat_gpu.Site_stats
module Metrics = Ppat_metrics.Metrics
module Q = QCheck2

let dev = Ppat_gpu.Device.k20c
let to_alcotest = QCheck_alcotest.to_alcotest

(* the nine attributed counters; the rest of Stats.t (warp_insts, syncs,
   mallocs) is deliberately unattributed and stays zero in [totals] *)
let attributed (s : Stats.t) =
  [
    ("mem_insts", s.mem_insts);
    ("transactions", s.transactions);
    ("bytes", s.bytes);
    ("l2_bytes", s.l2_bytes);
    ("smem_insts", s.smem_insts);
    ("smem_conflict_extra", s.smem_conflict_extra);
    ("atomics", s.atomics);
    ("atomic_serial_extra", s.atomic_serial_extra);
    ("divergent_branches", s.divergent_branches);
  ]

let check_totals name (agg : Stats.t) (ss : Site_stats.t) =
  let tot = Site_stats.totals ss in
  List.iter2
    (fun (k, a) (_, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: site column sum of %s equals aggregate (%g vs %g)"
           name k t a)
        true
        (compare a t = 0))
    (attributed agg) (attributed tot)

let run_app ?sim_jobs engine (app : Ppat_apps.App.t) strat =
  Ppat_harness.Runner.run_gpu ~engine ?sim_jobs ~attr:true
    ~params:app.Ppat_apps.App.params dev app.Ppat_apps.App.prog strat
    (Ppat_apps.App.input_data app)

let suite () =
  let module A = Ppat_apps in
  let s = Ppat_core.Strategy.Auto in
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:256 ~c:64 (), s);
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:128 ~c:48 (), s);
    ("hotspot", A.Hotspot.app ~n:32 ~steps:1 A.Hotspot.R, s);
    ( "mandelbrot-c",
      A.Mandelbrot.app ~h:16 ~w:16 ~max_iter:8 A.Mandelbrot.C,
      Ppat_core.Strategy.Warp_based );
    ("qpscd", A.Qpscd.app ~samples:32 ~dim:32 (), s);
    ("msmCluster", A.Msm_cluster.app ~frames:64 ~centers:8 ~dims:8 (), s);
  ]

let site_attrs name (r : Ppat_harness.Runner.gpu_result) =
  List.map
    (fun (k : Ppat_profile.Record.kernel) ->
      match k.site_attr with
      | Some sa -> (k, sa)
      | None ->
        Alcotest.failf "%s: launch %d (%s) has no site attribution" name
          k.index k.kname)
    r.profile

(* every bench app, both engines: column sums equal the aggregate
   counters, no overflow-row leakage, and sites actually discriminate
   (a kernel that moves memory has at least one memory site) *)
let test_apps_sum_to_aggregate () =
  List.iter
    (fun (name, app, strat) ->
      List.iter
        (fun engine ->
          let r = run_app engine app strat in
          List.iter
            (fun ((k : Ppat_profile.Record.kernel), (_, ss)) ->
              check_totals
                (Printf.sprintf "%s/%s" name k.kname)
                k.stats ss;
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s: overflow row is zero" name k.kname)
                true
                (Site_stats.overflow_is_zero ss))
            (site_attrs name r))
        [ Interp.Reference; Interp.Compiled ])
    (suite ())

(* the matrices themselves — not just their sums — must be bit-identical
   across engines and across serial vs multi-domain simulation *)
let test_apps_invariance () =
  List.iter
    (fun (name, app, strat) ->
      let rr = run_app ~sim_jobs:1 Interp.Reference app strat in
      let rc = run_app ~sim_jobs:1 Interp.Compiled app strat in
      let rp = run_app ~sim_jobs:4 Interp.Compiled app strat in
      let pair a b = List.combine (site_attrs name a) (site_attrs name b) in
      List.iter
        (fun (((ka : Ppat_profile.Record.kernel), (_, ssa)), (_, (_, ssb))) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: attribution identical across engines" name
               ka.kname)
            true
            (Site_stats.equal ssa ssb))
        (pair rr rc);
      List.iter
        (fun (((ka : Ppat_profile.Record.kernel), (_, ssa)), (_, (_, ssb))) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: attribution identical at 1 and 4 sim jobs"
               name ka.kname)
            true
            (Site_stats.equal ssa ssb))
        (pair rc rp))
    (suite ())

(* hot-spot ranking exists for every bench app (the [ppat report] body) *)
let test_hotspots_rank () =
  List.iter
    (fun (name, app, strat) ->
      let r = run_app Interp.Compiled app strat in
      List.iter
        (fun ((k : Ppat_profile.Record.kernel), (infos, ss)) ->
          let hs = Ppat_profile.Report.hotspots infos ss in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: has ranked sites" name k.kname)
            true
            (List.length hs = Array.length infos);
          (* ranked: transactions never increase down the list *)
          let rec sorted = function
            | (a : Ppat_profile.Report.hotspot)
              :: (b : Ppat_profile.Report.hotspot) :: rest ->
              a.hs_tx >= b.hs_tx && sorted (b :: rest)
            | _ -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: sites ranked by transactions" name k.kname)
            true (sorted hs);
          if k.stats.Stats.transactions > 0. then
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s: memory traffic attributed to a site" name
                 k.kname)
              true
              (List.exists (fun (h : Ppat_profile.Report.hotspot) -> h.hs_tx > 0.) hs))
        (site_attrs name r))
    (suite ())

(* --- random kernels: reuse the engine suite's generator so attribution
   is exercised on adversarial control flow, not just the bench apps --- *)

let run_one engine k =
  let mem = Test_engine.fresh_mem () in
  let infos, _ = Site.annotate k in
  let attr = Site_stats.create (Array.length infos) in
  let l =
    { Kir.kernel = k; grid = (2, 1, 1); block = (48, 1, 1); kparams = [] }
  in
  let stats = Interp.run ~engine ~jobs:1 ~attr dev mem l in
  (stats, attr)

let prop_random_attr =
  Q.Test.make
    ~name:"random kernels: attribution sums to aggregate, engine-invariant"
    ~count:200 Test_engine.gen_kernel (fun k ->
      let sr, ar = run_one Interp.Reference k in
      let sc, ac = run_one Interp.Compiled k in
      let tot_ok s a =
        List.for_all2
          (fun (_, x) (_, y) -> compare x y = 0)
          (attributed s)
          (attributed (Site_stats.totals a))
      in
      tot_ok sr ar && tot_ok sc ac
      && Site_stats.equal ar ac
      && Site_stats.overflow_is_zero ar)

(* --- the metrics registry itself --- *)

let test_registry_counters () =
  Metrics.reset ();
  let c = Metrics.counter "t.reg.c" in
  let c' = Metrics.counter "t.reg.c" in
  Metrics.add c 2.5;
  Metrics.incr c';
  Alcotest.(check (float 0.))
    "same name+labels is the same instrument" 3.5 (Metrics.value c);
  let l1 = Metrics.counter ~labels:[ ("k", "a") ] "t.reg.l" in
  let l2 = Metrics.counter ~labels:[ ("k", "b") ] "t.reg.l" in
  Metrics.incr l1;
  Metrics.add l2 4.;
  Alcotest.(check (float 0.)) "labels split the series" 1. (Metrics.value l1);
  Alcotest.(check (float 0.)) "labels split the series" 4. (Metrics.value l2)

let test_registry_sharding () =
  Metrics.reset ();
  let c = Metrics.counter "t.reg.per_domain" in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Metrics.incr c
            done))
  in
  for _ = 1 to 1000 do
    Metrics.incr c
  done;
  Array.iter Domain.join domains;
  Alcotest.(check (float 0.))
    "per-domain shards merge exactly" 5000. (Metrics.value c)

let test_registry_histogram_snapshot () =
  Metrics.reset ();
  let h = Metrics.histogram ~bounds:[| 1.; 10. |] "t.reg.h" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 50.; 7. ];
  let entry =
    List.find (fun (e : Metrics.entry) -> e.name = "t.reg.h") (Metrics.snapshot ())
  in
  (match entry.v with
   | Metrics.Histogram hv ->
     Alcotest.(check (float 0.)) "count" 4. hv.hv_count;
     Alcotest.(check (float 0.)) "sum" 62.5 hv.hv_sum;
     Alcotest.(check bool) "buckets" true (hv.hv_counts = [| 1.; 2.; 1. |])
   | Metrics.Counter _ -> Alcotest.fail "expected a histogram");
  Metrics.reset ();
  let entry =
    List.find (fun (e : Metrics.entry) -> e.name = "t.reg.h") (Metrics.snapshot ())
  in
  (match entry.v with
   | Metrics.Histogram hv ->
     Alcotest.(check (float 0.)) "reset zeroes but keeps registration" 0.
       hv.hv_count
   | Metrics.Counter _ -> Alcotest.fail "expected a histogram")

let test_spans () =
  Metrics.reset ();
  Metrics.set_span_recording false;
  ignore (Metrics.span ~cat:"x" "off" (fun () -> 1));
  Alcotest.(check int) "no spans recorded while off" 0
    (List.length (Metrics.spans ()));
  Metrics.set_span_recording true;
  let v = Metrics.span ~cat:"search" "on" (fun () -> 42) in
  Metrics.set_span_recording false;
  Alcotest.(check int) "span returns the body's value" 42 v;
  match Metrics.spans () with
  | [ s ] ->
    Alcotest.(check string) "name" "on" s.Metrics.sp_name;
    Alcotest.(check string) "cat" "search" s.Metrics.sp_cat;
    Alcotest.(check bool) "stop >= start" true
      (s.Metrics.sp_stop >= s.Metrics.sp_start)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

(* the engine metrics surface: a simulated run populates the staging and
   search counters the report prints *)
let test_engine_metrics_populated () =
  Metrics.reset ();
  let name, app, strat = List.hd (suite ()) in
  ignore (run_app ~sim_jobs:2 Interp.Compiled app strat);
  let v n = Metrics.value (Metrics.counter n) in
  Alcotest.(check bool)
    (name ^ ": staging counted vectorised statements")
    true
    (v "staging.vector_stmts" > 0.);
  Alcotest.(check bool)
    (name ^ ": parallel chunks recorded")
    true
    (v "pool.sim_chunks" > 0.);
  Alcotest.(check bool)
    (name ^ ": search evaluated candidates")
    true
    (Metrics.value
       (Metrics.counter
          ~labels:
            [ ("model", Ppat_core.Cost_model.name (Ppat_core.Cost_model.default ())) ]
          "search.candidates_evaluated")
    > 0.)

let tests =
  [
    Alcotest.test_case "bench apps: site sums equal aggregate" `Slow
      test_apps_sum_to_aggregate;
    Alcotest.test_case "bench apps: engine- and jobs-invariant" `Slow
      test_apps_invariance;
    Alcotest.test_case "bench apps: hot-spot ranking" `Slow test_hotspots_rank;
    to_alcotest prop_random_attr;
    Alcotest.test_case "registry: counters and labels" `Quick
      test_registry_counters;
    Alcotest.test_case "registry: sharded updates merge exactly" `Quick
      test_registry_sharding;
    Alcotest.test_case "registry: histogram snapshot and reset" `Quick
      test_registry_histogram_snapshot;
    Alcotest.test_case "registry: spans" `Quick test_spans;
    Alcotest.test_case "engine metrics populated by a run" `Quick
      test_engine_metrics_populated;
  ]
