(* The repository benchmark. See README.md for the workloads, the metrics
   and how to run it.

     benchmark.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
                   [--trace-out FILE]
         run one workload; the last stdout line is the result object
     benchmark.exe --smoke
         every workload at tiny sizes, plain and traced, asserting that
         every metric is present, nothing failed, the traced walker
         reproduces run_gpu and the layers claim the traced wall clock;
         also checks ./BENCHMARK.json against the metric table
     benchmark.exe agree A B
         compare two files of captured runs metric by metric
     benchmark.exe spec
         print the BENCHMARK.json the metric table implies *)

module J = Util.J
module M = Ppat_metrics.Metrics

let workload_names = List.map fst Spec.workloads

(* each workload's set-up, the domains of load it puts on the host and the
   cost models it runs under *)
let workload = function
  | "suite" -> (Suite.setup, 1, "soft")
  | "sweep" -> (Sweep_wl.setup, Sweep_wl.jobs, "soft")
  | "serve-zipf" -> (Serve_wl.setup ~mode:Serve_wl.Zipf, 1, String.concat "," Serve_wl.models)
  | "serve-cold" -> (Serve_wl.setup ~mode:Serve_wl.Cold, 1, String.concat "," Serve_wl.models)
  | w -> invalid_arg ("unknown workload " ^ w)

let topology ~jobs ~models =
  J.Obj
    [
      ("cores", J.Int (Domain.recommended_domain_count ()));
      ("jobs", J.Int jobs);
      ("sim_jobs", J.Int 1);
      ("engine", J.Str "compiled");
      ("cost_model", J.Str models);
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", J.Str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")));
      ( "env",
        J.Obj
          (List.filter_map
             (fun v -> Option.map (fun x -> (v, J.Str x)) (Sys.getenv_opt v))
             [ "PPAT_ENGINE"; "PPAT_SIM_JOBS"; "PPAT_COST_MODEL"; "PPAT_SHUFFLE"; "PPAT_L2_MODE" ]) );
    ]

(* rounds for about [seconds]: at least one, and no round that would end
   more than half a round past the deadline *)
let timed acc (inst : Instance.t) ~traced ~seconds =
  let deadline = Util.now () +. seconds in
  let rec loop () =
    acc.Acc.round_ms <- [];
    let t0 = Util.now () in
    let items = inst.round acc ~traced in
    let t1 = Util.now () in
    acc.Acc.rounds <- (items, t1 -. t0) :: acc.Acc.rounds;
    acc.round_p99_ms <- Util.percentile (Util.sorted acc.round_ms) 99. :: acc.round_p99_ms;
    if t1 +. ((t1 -. t0) /. 2.) < deadline then loop ()
  in
  loop ()

(* registry deltas and wall clock of the traced regions *)
let deltas : M.entry list ref = ref []
let traced_wall = ref 0.

let traced_region f =
  let before = M.snapshot () in
  let t0 = Util.now () in
  let r = Trace.span "bench" f in
  traced_wall := !traced_wall +. (Util.now () -. t0);
  deltas := M.diff before (M.snapshot ()) @ !deltas;
  r

let round_walls acc = List.map snd acc.Acc.rounds

let end_to_end ~setup_samples acc =
  let requests = Util.sorted acc.Acc.calls_ms in
  [
    ("setup_s", Util.median setup_samples);
    ("peak_rss_mb", Util.peak_rss_mb ());
    ("pass_s", Util.median (round_walls acc));
    ( "app_geomean_ms",
      Util.geomean (Hashtbl.fold (fun _ l a -> Util.median l :: a) acc.Acc.per_app []) );
    ("sim_minst_per_s", acc.Acc.warp_insts /. acc.Acc.gpu_wall /. 1e6);
    ("cand_per_s", Util.median (List.map (fun (n, w) -> float n /. w) acc.Acc.rounds));
    ("req_p50_ms", Util.percentile requests 50.);
    (* per pass, then the median over passes: on serve-cold a host slowdown
       over part of a run moved the p99 of all requests pooled by up to 60%
       while the median request moved 30% *)
    ("req_p99_ms", Util.median acc.Acc.round_p99_ms);
    ( "req_per_s",
      float (Array.length requests) /. List.fold_left ( +. ) 0. (round_walls acc) );
  ]

let per_layer ~untraced ~traced (inst : Instance.t) =
  let self = Trace.self_times () in
  let self_of k = Option.value ~default:0. (Hashtbl.find_opt self k) in
  let c ?labels name = Util.counter_total ?labels !deltas name in
  let ratio a b = if a +. b > 0. then a /. (a +. b) else 0. in
  let stats, secs = inst.deterministic () in
  let sim_s = self_of "kernel.simulate.s" in
  let plan = [ ("cache", "plan_cache") ] and memo = [ ("cache", "search_memo") ] in
  List.map (fun k -> (k, self_of k)) Spec.self_time_layers
  @ [
      ("kernel.simulate.warp_insts", traced.Acc.warp_insts);
      ("kernel.simulate.minst_per_s", if sim_s > 0. then traced.Acc.warp_insts /. sim_s /. 1e6 else 0.);
      ("cpu.oracle.mops", traced.Acc.oracle_ops /. 1e6);
      ("cpu.oracle.alloc_mwords", traced.Acc.oracle_words /. 1e6);
      ("core.search.candidates", c "search.candidates_evaluated");
      ( "core.search.pruned_ratio",
        ratio (c "search.candidates_pruned") (c "search.candidates_evaluated") );
      ("kernel.stage.vector_share", ratio (c "staging.vector_stmts") (c "staging.scalar_stmts"));
      ("kernel.stage.fallbacks", c "engine.fallbacks" +. float traced.Acc.walker_fallbacks);
      ( "harness.sweep.shapes_per_candidate",
        if traced.Acc.shape_cands > 0 then
          float traced.Acc.shapes /. float traced.Acc.shape_cands
        else 0. );
      ("parallel.pool.tasks", c "pool.tasks");
      ("parallel.pool.steals", c "pool.steals");
      ( "serve.plan_hit_ratio",
        ratio (c ~labels:plan "ppat_cache_hits") (c ~labels:plan "ppat_cache_misses") );
      ( "serve.memo_hit_ratio",
        ratio (c ~labels:memo "ppat_cache_hits") (c ~labels:memo "ppat_cache_misses") );
      ("serve.plan_evictions", c ~labels:plan "ppat_cache_evictions");
      ("gpu.memory.transactions", stats.transactions);
      ("gpu.memory.l2_hit_rate", Ppat_gpu.Stats.l2_hit_rate stats);
      ("gpu.memory.smem_conflict_extra", stats.smem_conflict_extra);
      ("gpu.memory.bytes_per_transaction", Ppat_gpu.Stats.bytes_per_transaction stats);
      ("gpu.timing.simulated_us", Util.geomean secs *. 1e6);
      ( "trace.overhead_ratio",
        (Util.median (round_walls traced) /. Util.median (round_walls untraced)) -. 1. );
    ]

type outcome = {
  report : J.t;  (* topology, sample counts, phase walls *)
  result : J.t;  (* the final line *)
  attempted : int;
  failed : int;
}

let run ~workload:name ~seed ~seconds ~trace ~tiny =
  let setup, jobs, models = workload name in
  Trace.enabled := false;
  Trace.recorded := [];
  deltas := [];
  traced_wall := 0.;
  let t_start = Util.now () in
  (* [acc] sees set-up, warm-up and, when tracing, the traced half; the
     end-to-end metrics come from [timed] alone *)
  let acc = Acc.create () and timed_acc = Acc.create () in
  (* the end-to-end run sets up five times and reports the median *)
  let setup_samples, inst =
    let once () =
      let t0 = Util.now () in
      let inst = setup ~seed ~tiny acc in
      (Util.now () -. t0, inst)
    in
    if trace then begin
      Trace.enabled := true;
      let s, inst = traced_region once in
      ([ s ], inst)
    end
    else
      (* keep only the last instance, and collect each earlier one before
         the next set-up, so the repeats do not raise peak_rss_mb *)
      let rec repeat n samples =
        let s, inst = once () in
        if n = 1 then (s :: samples, inst)
        else begin
          Gc.full_major ();
          repeat (n - 1) (s :: samples)
        end
      in
      repeat 5 []
  in
  let t_warm = Util.now () in
  (if trace then traced_region else fun f -> f ()) (fun () -> inst.warmup acc ~traced:trace);
  let warmup_s = Util.now () -. t_warm in
  Trace.enabled := false;
  timed timed_acc inst ~traced:false ~seconds:(if trace then seconds /. 2. else seconds);
  if trace then begin
    Trace.enabled := true;
    traced_region (fun () -> timed acc inst ~traced:true ~seconds:(seconds /. 2.));
    Trace.enabled := false
  end;
  let attempted = acc.attempted + timed_acc.attempted
  and failed = acc.failed + timed_acc.failed in
  let metrics =
    if trace then per_layer ~untraced:timed_acc ~traced:acc inst
    else end_to_end ~setup_samples timed_acc
  in
  let metric_json (name, v) =
    match Spec.find name with
    | Some m -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str m.unit_) ])
    | None -> invalid_arg ("metric missing from the table: " ^ name)
  in
  let report =
    J.Obj
      [
        ("perfbench", J.Str name);
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("trace", J.Bool trace);
        ("topology", topology ~jobs ~models);
        ( "samples",
          J.Obj
            [
              ("setup", J.Int (List.length setup_samples));
              ("passes", J.Int (List.length timed_acc.rounds));
              ("requests", J.Int (List.length timed_acc.calls_ms));
              ("candidates", J.Int (List.fold_left (fun n (c, _) -> n + c) 0 timed_acc.rounds));
              ("apps", J.Int (Hashtbl.length timed_acc.per_app));
              ("spans", J.Int (Trace.count ()));
            ] );
        ("setup_s", J.List (List.map J.number setup_samples));
        ( "app_median_ms",
          J.Obj
            (List.sort compare
               (Hashtbl.fold (fun app l a -> (app, J.number (Util.median l)) :: a) timed_acc.per_app []))
        );
        ("pass_s", J.List (List.rev_map (fun (_, w) -> J.number w) timed_acc.rounds));
        ("warmup_s", J.number warmup_s);
        ("run_wall_s", J.number (Util.now () -. t_start));
      ]
  in
  let result =
    J.Obj
      [
        ("correct", J.Bool (failed = 0));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("metrics", J.Obj (List.map metric_json metrics));
      ]
  in
  { report; result; attempted; failed }

(* ----- --smoke: tiny sizes, both modes, every workload ----- *)

let smoke () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Spec.check_file "BENCHMARK.json" with Ok () -> () | Error e -> problem "%s" e);
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let o = run ~workload ~seed:1 ~seconds:0.2 ~trace ~tiny:true in
          let what = Printf.sprintf "%s (trace %b)" workload trace in
          if o.attempted = 0 then problem "%s attempted nothing" what;
          if o.failed > 0 then problem "%s: %d of %d operations failed" what o.failed o.attempted;
          let want = if trace then Spec.per_layer else Spec.end_to_end in
          let got = Option.value ~default:J.Null (J.member "metrics" o.result) in
          List.iter
            (fun (m : Spec.metric) ->
              match Option.bind (J.member m.name got) (J.member "value") with
              | Some (J.Float v) when Float.is_finite v -> ()
              | _ -> problem "%s: metric %s missing or not finite" what m.name)
            want;
          (* time no layer of the program claims: the benchmark's own loop
             and the pipeline's unnamed remainder *)
          let unclaimed =
            if not trace then ""
            else
              String.concat ""
                (List.map
                   (fun (k, most) ->
                     let share =
                       Option.value ~default:nan
                         (Option.bind (J.member k got) (fun m ->
                              Option.bind (J.member "value" m) J.to_float))
                       /. !traced_wall
                     in
                     if not (share <= most) then
                       problem "%s: %s is %.1f%% of the traced wall clock (at most %.0f%%)" what k
                         (100. *. share) (100. *. most);
                     Printf.sprintf ", %s %.1f%%" k (100. *. share))
                   [ ("bench.self.s", 0.05); ("pipeline.other.s", 0.25) ])
          in
          Printf.printf "smoke %-10s trace=%d: %d attempted, %d failed%s\n%!" workload
            (Bool.to_int trace) o.attempted o.failed unclaimed)
        [ false; true ])
    workload_names;
  match !problems with
  | [] -> print_endline "smoke: OK"
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
    exit 1

(* ----- command line ----- *)

let usage () =
  prerr_endline
    "usage: benchmark.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n\
    \       benchmark.exe --smoke\n\
    \       benchmark.exe agree A B\n\
    \       benchmark.exe spec";
  exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "agree"; a; b ] -> exit (Agree.main a b)
  | [ "spec" ] ->
    print_endline
      (J.to_string
         (Spec.json ~command:[ "bash"; "perfbench/run.sh" ] ~paths:[ "perfbench" ] ~run_seconds:20))
  | args ->
    let workload = ref None and seed = ref 1 and seconds = ref 20. and trace = ref false in
    let trace_out = ref None and smoke_mode = ref false in
    let int_arg flag v =
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        Printf.eprintf "%s expects an integer, got %S\n" flag v;
        exit 2
    in
    let rec parse = function
      | [] -> ()
      | "--workload" :: w :: rest ->
        if not (List.mem w workload_names) then begin
          Printf.eprintf "unknown workload %S (one of %s)\n" w (String.concat ", " workload_names);
          exit 2
        end;
        workload := Some w;
        parse rest
      | "--seed" :: n :: rest ->
        seed := int_arg "--seed" n;
        parse rest
      | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
         | Some x when x > 0. -> seconds := x
         | _ ->
           Printf.eprintf "--seconds expects a positive number, got %S\n" s;
           exit 2);
        parse rest
      | "--trace" :: t :: rest ->
        (match t with
         | "0" -> trace := false
         | "1" -> trace := true
         | _ ->
           Printf.eprintf "--trace expects 0 or 1, got %S\n" t;
           exit 2);
        parse rest
      | "--trace-out" :: f :: rest ->
        trace_out := Some f;
        parse rest
      | "--smoke" :: rest ->
        smoke_mode := true;
        parse rest
      | a :: _ ->
        Printf.eprintf "unexpected argument %S\n" a;
        usage ()
    in
    parse args;
    if !smoke_mode then smoke ()
    else
      match !workload with
      | None -> usage ()
      | Some workload ->
        let o = run ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~tiny:false in
        Option.iter Trace.write_chrome !trace_out;
        print_endline (J.to_string ~minify:true o.report);
        print_endline (J.to_string ~minify:true o.result)
