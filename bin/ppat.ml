(* ppat — command-line driver for the nested-pattern GPU mapping pipeline.

   Subcommands:
     list                      the bundled benchmark applications
     run APP [-s STRATEGY]     analyse, lower, simulate and validate an app
     profile APP [-s STRAT] [--json F] [--chrome-trace F]
                               per-kernel profiles of a simulated run
     report APP [-s STRAT] [--json F]
                               per-access-site hot-spot attribution table
     trace-search APP [-s STRAT] [--json F]
                               ranked trace of the mapping search
     modelcmp APP [--top K] [--json F]
                               rank the mapping space under every cost model
                               and compare against the simulator
     cuda APP                  print the CUDA kernels the mapping produces
     explain APP               show constraints and the mapping decision
     figures [FIG...]          regenerate the paper's evaluation figures *)

let dev = Ppat_gpu.Device.k20c

module A = Ppat_apps
module Cost_model = Ppat_core.Cost_model

let registry : (string * (unit -> A.App.t)) list = A.Registry.all

(* a malformed flag value is a usage error: one line naming the flag and
   the accepted values, exit 2 — never an uncaught exception *)
let usage_error msg =
  prerr_endline ("ppat: " ^ msg);
  exit 2

let or_usage = function Ok v -> v | Error e -> usage_error e
let pos_int flag n = or_usage (Ppat_gpu.Tuning.parse_pos_int ~name:flag n)
let jobs_flag n = min (pos_int "--jobs" n) Ppat_parallel.max_jobs

(* an output-file flag must name a writable file. Checked before the run
   (a probe file is created and removed again), so a bad path neither
   costs a whole simulation nor escapes as an uncaught Sys_error *)
let output_file flag f =
  (try
     if Sys.file_exists f then
       close_out (open_out_gen [ Open_wronly; Open_append ] 0o644 f)
     else begin
       close_out (open_out_gen [ Open_wronly; Open_creat; Open_excl ] 0o644 f);
       Sys.remove f
     end
   with Sys_error e -> usage_error (Printf.sprintf "%s: cannot write %s" flag e));
  f

let app_ctor name =
  match List.assoc_opt name registry with
  | Some mk -> mk
  | None -> usage_error (Printf.sprintf "unknown app %S; try 'ppat list'" name)

let find_app name = app_ctor name ()

let cmd_list () =
  Format.printf "bundled applications:@.";
  List.iter
    (fun (name, mk) ->
      let app = mk () in
      let depth =
        Ppat_ir.Pat.fold_patterns (fun d l _ -> max d (l + 1)) 0 app.A.App.prog
      in
      Format.printf "  %-20s %-18s %d level%s@." name app.A.App.name depth
        (if depth = 1 then "" else "s"))
    registry

let cmd_run name strat engine model sim_jobs =
  let app = find_app name in
  let data = A.App.input_data app in
  Format.printf "running %s (CPU oracle first)...@." app.A.App.name;
  let cpu = Ppat_harness.Runner.run_cpu ~params:app.params app.prog data in
  Format.printf "CPU model: %.4g s@." cpu.cpu_seconds;
  let r =
    Ppat_harness.Runner.run_gpu ~engine ~sim_jobs ~params:app.params ~model
      dev app.prog strat data
  in
  Format.printf "%s: %.4g s over %d kernel launches (%s cost model)@."
    (Ppat_core.Strategy.name strat)
    r.seconds r.kernels (Cost_model.name model);
  List.iter
    (fun (label, (d : Ppat_core.Strategy.decision)) ->
      Format.printf "  %-16s %s  [%s]@." label
        (Ppat_core.Mapping.to_string d.mapping)
        d.via)
    r.decisions;
  List.iter (fun n -> Format.printf "  note: %s@." n) r.notes;
  Format.printf "aggregate statistics:@.%a@." Ppat_gpu.Stats.pp r.stats;
  match
    Ppat_harness.Runner.check ~eps:(Float.max app.eps 1e-5)
      ~unordered:app.unordered app.prog ~expected:cpu.cpu_data ~actual:r.data
  with
  | Ok () -> Format.printf "results validated against the CPU reference.@."
  | Error e ->
    Format.printf "VALIDATION FAILED: %s@." e;
    exit 1

(* profile and report share the attributed run: site attribution on, the
   metrics registry reset at the start so the snapshot covers exactly
   this run, and span recording on for the Chrome-trace timeline *)
let attributed_run name strat engine model sim_jobs =
  let app = find_app name in
  let data = A.App.input_data app in
  Ppat_profile.Metrics.reset ();
  Ppat_profile.Metrics.set_span_recording true;
  let r =
    Ppat_harness.Runner.run_gpu ~engine ~sim_jobs ~attr:true
      ~params:app.params ~model dev app.prog strat data
  in
  Ppat_profile.Metrics.set_span_recording false;
  let run =
    Ppat_profile.Record.make_run ~app:name
      ~strategy:(Ppat_core.Strategy.name strat)
      ~device:dev.Ppat_gpu.Device.dname
      ~cost_model:(Cost_model.name model)
      ~sim_jobs ~total_seconds:r.seconds r.profile
  in
  (r, run)

let cmd_profile name strat engine model sim_jobs json chrome =
  let r, run = attributed_run name strat engine model sim_jobs in
  Format.printf "%a@." Ppat_profile.Report.pp_run run;
  List.iter (fun n -> Format.printf "note: %s@." n) r.notes;
  (match json with
   | None -> ()
   | Some f ->
     Ppat_profile.Jsonx.to_file f
       (Ppat_profile.Record.json_of_run
          ~metrics:(Ppat_profile.Metrics.snapshot_json ())
          run);
     Format.printf "wrote JSON profile to %s@." f);
  match chrome with
  | None -> ()
  | Some f ->
    Ppat_profile.Chrome_trace.to_file
      ~spans:(Ppat_profile.Metrics.spans ())
      f run;
    Format.printf "wrote Chrome trace to %s (load in about://tracing)@." f

let cmd_report name strat engine model sim_jobs json =
  let _, run = attributed_run name strat engine model sim_jobs in
  Format.printf "%a@." Ppat_profile.Report.pp_hotspots run;
  Format.printf "run metrics:@.%a@." Ppat_profile.Metrics.pp_snapshot ();
  match json with
  | None -> ()
  | Some f ->
    Ppat_profile.Jsonx.to_file f
      (Ppat_profile.Record.json_of_run
         ~metrics:(Ppat_profile.Metrics.snapshot_json ())
         run);
    Format.printf "wrote JSON profile to %s@." f

(* iterate launches of the program once, for trace-search, cuda, explain
   and racecheck *)
let iter_launches (app : A.App.t) f =
  let seen = ref [] in
  let rec step = function
    | Ppat_ir.Pat.Launch n ->
      if not (List.mem n.pat.Ppat_ir.Pat.pid !seen) then begin
        seen := n.pat.Ppat_ir.Pat.pid :: !seen;
        f n
      end
    | Ppat_ir.Pat.Host_loop { body; _ } | Ppat_ir.Pat.While_flag { body; _ }
      ->
      List.iter step body
    | Ppat_ir.Pat.Swap _ -> ()
  in
  List.iter step app.prog.Ppat_ir.Pat.steps

let decide ?trace ?model (app : A.App.t) n =
  let c =
    Ppat_core.Collect.collect
      ~params:(Ppat_harness.Runner.analysis_params app.prog app.params)
      ?bind:n.Ppat_ir.Pat.bind dev app.prog n.Ppat_ir.Pat.pat
  in
  (c, Ppat_core.Strategy.decide ?trace ?model dev c Ppat_core.Strategy.Auto)

let cmd_trace_search name strat model json =
  let app = find_app name in
  let traces = ref [] in
  iter_launches app (fun n ->
      let c =
        Ppat_core.Collect.collect
          ~params:(Ppat_harness.Runner.analysis_params app.prog app.params)
          ?bind:n.Ppat_ir.Pat.bind dev app.prog n.Ppat_ir.Pat.pat
      in
      let candidates = ref [] in
      let decision =
        Ppat_core.Strategy.decide
          ~trace:(fun t -> candidates := t :: !candidates)
          ~model dev c strat
      in
      let st =
        {
          Ppat_profile.Report.st_label = n.pat.Ppat_ir.Pat.label;
          st_result = decision;
          st_candidates = List.rev !candidates;
        }
      in
      traces := st :: !traces;
      Format.printf "%a@.@." (Ppat_profile.Report.pp_search ~limit:16) st);
  match json with
  | None -> ()
  | Some f ->
    Ppat_profile.Jsonx.to_file f
      (Ppat_profile.Jsonx.List
         (List.rev_map Ppat_profile.Report.json_of_search !traces));
    Format.printf "wrote search trace to %s@." f

(* ----- modelcmp: rank the mapping space under every cost model and
   compare the rankings against simulator ground truth ----- *)

(* the candidate space modelcmp and sweep evaluate, unpacked; exits when
   the target pattern has no hard-feasible mapping to compare *)
let target_space (app : A.App.t) =
  let ts = Ppat_harness.Runner.target_space ~params:app.params dev app.prog in
  let t = ts.ts_target.pat in
  if ts.ts_candidates = [||] then begin
    Format.eprintf "no hard-feasible candidate mappings for %s@." t.label;
    exit 1
  end;
  (ts.ts_base, t.pid, t.label, ts.ts_collect, ts.ts_candidates, ts.ts_duplicates)

let cmd_modelcmp name engine top json =
  let app = find_app name in
  let data = A.App.input_data app in
  let base, tpid, tlabel, tc, cands, dupes = target_space app in
  let n = Array.length cands in
  (* rank the whole space under each model: array of candidate indices in
     rank order, plus each candidate's eval under that model *)
  let rankings =
    List.map
      (fun model ->
        let evals, order = Cost_model.rank model dev tc cands in
        (model, evals, order))
      Cost_model.all
  in
  (* simulate the union of every model's top-k plus a strided sample of
     the rest of the space *)
  let sample = Hashtbl.create 32 in
  List.iter
    (fun (_, _, order) ->
      Array.iteri (fun rank i -> if rank < top then Hashtbl.replace sample i ())
        order)
    rankings;
  let stride = max 1 (n / 12) in
  let i = ref 0 in
  while !i < n do
    Hashtbl.replace sample !i ();
    i := !i + stride
  done;
  let sim = Hashtbl.create 32 in
  Hashtbl.iter
    (fun i () ->
      let mapping_of pid =
        if pid = tpid then cands.(i) else List.assoc pid base
      in
      match
        Ppat_harness.Runner.run_gpu_mapped ~engine ~params:app.params dev
          app.prog mapping_of data
      with
      | r ->
        (* ground truth: simulated seconds of the target pattern's own
           launches (other patterns contribute a constant) *)
        let secs =
          List.fold_left
            (fun acc (k : Ppat_profile.Record.kernel) ->
              if k.label = tlabel then
                acc +. k.breakdown.Ppat_gpu.Timing.seconds
              else acc)
            0. r.profile
        in
        Hashtbl.replace sim i secs
      | exception Ppat_codegen.Lower.Unsupported _ -> ()
      | exception Failure _ -> ())
    sample;
  let simulated =
    Hashtbl.fold (fun i s acc -> (i, s) :: acc) sim []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if List.length simulated < 2 then begin
    Format.eprintf
      "only %d candidate(s) could be simulated; nothing to compare@."
      (List.length simulated);
    exit 1
  end;
  let best_sim =
    List.fold_left (fun acc (_, s) -> min acc s) infinity simulated
  in
  let sim_arr = Array.of_list (List.map snd simulated) in
  Format.printf
    "modelcmp %s: target pattern %S, %d unique hard-feasible mappings (%d \
     duplicate(s) dropped), %d simulated (top-%d per model + stride-%d \
     sample)@."
    name tlabel n dupes (List.length simulated) top stride;
  Format.printf "  %-12s %-9s %-8s selected mapping@." "model" "spearman"
    "regret";
  let rows =
    List.map
      (fun (model, evals, order) ->
        (* rank position of each simulated candidate under this model *)
        let pos = Array.make n 0 in
        Array.iteri (fun rank i -> pos.(i) <- rank) order;
        let rank_arr =
          Array.of_list (List.map (fun (i, _) -> float_of_int pos.(i)) simulated)
        in
        let rho = Cost_model.spearman rank_arr sim_arr in
        let top1 = order.(0) in
        let top1_secs =
          match Hashtbl.find_opt sim top1 with
          | Some s -> s
          | None -> nan (* top-k simulation failed to lower *)
        in
        let regret =
          if best_sim > 0. then (top1_secs /. best_sim) -. 1. else 0.
        in
        let pred_cycles =
          match evals.(top1).Cost_model.predicted with
          | Some p -> Some p.Ppat_core.Predict.cycles
          | None -> None
        in
        Format.printf "  %-12s %-9s %-8s %s@." (Cost_model.name model)
          (if Float.is_nan rho then "n/a" else Printf.sprintf "%.3f" rho)
          (if Float.is_nan regret then "n/a"
           else Printf.sprintf "%.1f%%" (100. *. regret))
          (Ppat_core.Mapping.to_string cands.(top1));
        (model, rho, regret, top1, top1_secs, pred_cycles))
      rankings
  in
  (* headline number: the static predictor's cycles against simulated
     seconds, independent of any ranking tie-breaks *)
  let pred_rho =
    let cycles =
      List.map
        (fun (i, _) ->
          match
            (Cost_model.evaluate Cost_model.Analytical dev tc cands.(i))
              .Cost_model.predicted
          with
          | Some p -> p.Ppat_core.Predict.cycles
          | None -> nan)
        simulated
    in
    Cost_model.spearman (Array.of_list cycles) sim_arr
  in
  Format.printf
    "predictor cycles vs simulated seconds: spearman %s over %d mappings@."
    (if Float.is_nan pred_rho then "n/a" else Printf.sprintf "%.3f" pred_rho)
    (List.length simulated);
  match json with
  | None -> ()
  | Some f ->
    let open Ppat_profile.Jsonx in
    let j =
      Obj
        [
          ("schema", Str "ppat-modelcmp/1");
          ("app", Str name);
          ("pattern", Str tlabel);
          ("feasible_candidates", Int n);
          ("duplicates_dropped", Int dupes);
          ("simulated", Int (List.length simulated));
          (* [number], not [Float]: spearman is undefined (nan) on
             constant rankings and regret can degenerate — both must
             reach the file as explicit nulls, never as invalid tokens *)
          ("predictor_spearman", number pred_rho);
          ( "models",
            List
              (List.map
                 (fun (model, rho, regret, top1, top1_secs, pred_cycles) ->
                   Obj
                     [
                       ("model", Str (Cost_model.name model));
                       ("spearman", number rho);
                       ("regret", number regret);
                       ( "selected_mapping",
                         Str (Ppat_core.Mapping.to_string cands.(top1)) );
                       ("selected_sim_seconds", number top1_secs);
                       ( "selected_predicted_cycles",
                         match pred_cycles with
                         | Some c -> number c
                         | None -> Null );
                     ])
                 rows) );
          ( "sample",
            List
              (List.map
                 (fun (i, s) ->
                   Obj
                     [
                       ( "mapping",
                         Str (Ppat_core.Mapping.to_string cands.(i)) );
                       ("sim_seconds", number s);
                     ])
                 simulated) );
        ]
    in
    to_file f j;
    Format.printf "wrote modelcmp report to %s@." f

(* ----- sweep: evaluation of the target pattern's mapping space on the
   pool, plus the predictor-vs-simulator calibration loop ----- *)

let cmd_sweep name engine sim_jobs jobs budget json =
  let app = find_app name in
  let data = A.App.input_data app in
  let base, tpid, tlabel, tc, cands, dupes = target_space app in
  let n = Array.length cands in
  (* rank the whole population under a model; [calib] re-ranks after the
     calibration fit (a positive-gain affine map must not change ranks —
     the gate below holds the loop to that) *)
  let rank_of ?calib model =
    let evals, order = Cost_model.rank ?calib model dev tc cands in
    let pos = Array.make n 0 in
    Array.iteri (fun rank i -> pos.(i) <- rank) order;
    (evals, order, pos)
  in
  let rankings = List.map (fun m -> (m, rank_of m)) Cost_model.all in
  (* active learning: the simulation budget goes to the candidates whose
     rank the models disagree on most, plus each model's incumbent *)
  let disagreement =
    Ppat_core.Sweep.rank_disagreement
      (List.map (fun (_, (_, _, pos)) -> pos) rankings)
      n
  in
  let incumbents = List.map (fun (_, (_, order, _)) -> order.(0)) rankings in
  let budget = if budget <= 0 then n else budget in
  let chosen =
    Ppat_core.Sweep.select ~budget ~always:incumbents disagreement
  in
  let sel = Array.of_list chosen in
  Format.printf
    "sweep %s: target %S, %d unique candidates (%d duplicate(s) dropped), \
     evaluating %d (budget %d)@."
    name tlabel n dupes (Array.length sel) budget;
  (* evaluate the selection on this process's pool *)
  let results, counts =
    Ppat_harness.Runner.sweep_mapped ~engine ~sim_jobs ~jobs
      ~params:app.params dev app.prog ~target_pid:tpid ~base
      (Array.map (fun i -> cands.(i)) sel)
      data
  in
  let share =
    if counts.sw_wall_seconds > 0. then
      counts.sw_stage_seconds /. counts.sw_wall_seconds
    else 0.
  in
  Format.printf
    "  %d shape(s), %d failed; staging %.3fs of %.3fs wall (share %.1f%%)@."
    counts.sw_shapes counts.sw_failed counts.sw_stage_seconds
    counts.sw_wall_seconds (100. *. share);
  (* ground truth: simulated model seconds of the target pattern, keyed
     by population index *)
  let sim = Hashtbl.create 32 in
  Array.iteri
    (fun si (c : Ppat_harness.Runner.sweep_candidate) ->
      match (c.sc_result, c.sc_target_seconds) with
      | Ok _, Some s -> Hashtbl.replace sim sel.(si) s
      | _ -> ())
    results;
  let simulated =
    Hashtbl.fold (fun i s acc -> (i, s) :: acc) sim []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  if List.length simulated < 2 then begin
    Format.eprintf "only %d candidate(s) simulated; nothing to calibrate@."
      (List.length simulated);
    exit 1
  end;
  let best_sim =
    List.fold_left (fun a (_, s) -> min a s) infinity simulated
  in
  let sim_arr = Array.of_list (List.map snd simulated) in
  (* calibration sample: the analytical predictor's cycles against the
     simulated seconds of the same candidates *)
  let a_evals, _, _ = List.assoc Cost_model.Analytical rankings in
  let pairs =
    List.filter_map
      (fun (i, s) ->
        match a_evals.(i).Cost_model.predicted with
        | Some p when Float.is_finite p.Ppat_core.Predict.cycles ->
          Some (p.Ppat_core.Predict.cycles, s)
        | _ -> None)
      simulated
  in
  let calib = Ppat_core.Sweep.fit_affine pairs in
  let mare_before = Ppat_core.Sweep.mare pairs in
  let mare_after =
    match calib with
    | None -> mare_before
    | Some cal ->
      Ppat_core.Sweep.mare
        (List.map (fun (c, s) -> (Cost_model.calibrate cal c, s)) pairs)
  in
  let stats_of (_, order, pos) =
    let rank_arr =
      Array.of_list
        (List.map (fun (i, _) -> float_of_int pos.(i)) simulated)
    in
    let rho = Cost_model.spearman rank_arr sim_arr in
    let top1 = order.(0) in
    let regret =
      match Hashtbl.find_opt sim top1 with
      | Some s -> Ppat_core.Sweep.regret ~best:best_sim s
      | None -> nan
    in
    (rho, regret, top1)
  in
  let report =
    List.map
      (fun (model, pre) ->
        let rho0, reg0, _ = stats_of pre in
        let post =
          match calib with
          | Some cal -> rank_of ~calib:cal model
          | None -> pre
        in
        let rho1, reg1, top1 = stats_of post in
        (model, rho0, reg0, rho1, reg1, top1))
      rankings
  in
  let fnum x = if Float.is_nan x then "n/a" else Printf.sprintf "%.3f" x in
  let fpct x =
    if Float.is_nan x then "n/a" else Printf.sprintf "%.1f%%" (100. *. x)
  in
  Format.printf "  %-12s %-17s %-17s selected mapping@." "model"
    "spearman pre/post" "regret pre/post";
  List.iter
    (fun (model, rho0, reg0, rho1, reg1, top1) ->
      Format.printf "  %-12s %-17s %-17s %s@." (Cost_model.name model)
        (Printf.sprintf "%s / %s" (fnum rho0) (fnum rho1))
        (Printf.sprintf "%s / %s" (fpct reg0) (fpct reg1))
        (Ppat_core.Mapping.to_string cands.(top1)))
    report;
  (match calib with
   | Some c ->
     Format.printf
       "  calibration over %d pair(s): seconds ~ %.4g * cycles + %.4g; \
        MARE %s -> %s@."
       (List.length pairs) c.Cost_model.gain c.Cost_model.offset
       (match mare_before with Some m -> fnum m | None -> "n/a")
       (match mare_after with Some m -> fnum m | None -> "n/a")
   | None ->
     Format.printf
       "  calibration: degenerate sample (%d pair(s)), identity kept@."
       (List.length pairs));
  (* the loop's contract: re-ranking under the calibrated predictor never
     worsens a model's regret (affine positive gain preserves order) *)
  List.iter
    (fun (model, _, reg0, _, reg1, _) ->
      if Float.is_finite reg0 && Float.is_finite reg1 && reg1 > reg0 +. 1e-9
      then begin
        Format.eprintf
          "sweep: calibration worsened %s regret (%.4f -> %.4f)@."
          (Cost_model.name model) reg0 reg1;
        exit 1
      end)
    report;
  match json with
  | None -> ()
  | Some f ->
    let open Ppat_profile.Jsonx in
    let opt_number = function None -> Null | Some x -> number x in
    let j =
      Obj
        [
          ("schema", Str "ppat-sweep/1");
          ("app", Str name);
          ("pattern", Str tlabel);
          ("population", Int n);
          ("duplicates_dropped", Int dupes);
          ("budget", Int budget);
          ("evaluated", Int counts.sw_candidates);
          ("shapes", Int counts.sw_shapes);
          ("failed", Int counts.sw_failed);
          ("stage_seconds", number counts.sw_stage_seconds);
          ("wall_seconds", number counts.sw_wall_seconds);
          ("staging_share", number share);
          ( "calibration",
            match calib with
            | Some c ->
              Obj
                [
                  ("gain", number c.Cost_model.gain);
                  ("offset", number c.Cost_model.offset);
                ]
            | None -> Null );
          ("mare_before", opt_number mare_before);
          ("mare_after", opt_number mare_after);
          ( "models",
            List
              (List.map
                 (fun (model, rho0, reg0, rho1, reg1, top1) ->
                   Obj
                     [
                       ("model", Str (Cost_model.name model));
                       ("spearman_pre", number rho0);
                       ("spearman_post", number rho1);
                       ("regret_pre", number reg0);
                       ("regret_post", number reg1);
                       ( "selected_mapping",
                         Str (Ppat_core.Mapping.to_string cands.(top1)) );
                     ])
                 report) );
          ( "candidates",
            List
              (Array.to_list
                 (Array.mapi
                    (fun si (c : Ppat_harness.Runner.sweep_candidate) ->
                      Obj
                        ([
                           ( "mapping",
                             Str (Ppat_core.Mapping.to_string cands.(sel.(si)))
                           );
                         ]
                        @ (match c.sc_shape with
                           | Some s -> [ ("shape", Str s) ]
                           | None -> [])
                        @ (match c.sc_digest with
                           | Some d -> [ ("digest", Str d) ]
                           | None -> [])
                        @ (match c.sc_target_seconds with
                           | Some s -> [ ("sim_seconds", number s) ]
                           | None -> [])
                        @
                        match c.sc_result with
                        | Error e -> [ ("error", Str e) ]
                        | Ok _ -> []))
                    results)) );
        ]
    in
    to_file f j;
    Format.printf "wrote sweep report to %s@." f

let cmd_cuda name =
  let app = find_app name in
  iter_launches app (fun n ->
      let _, r = decide app n in
      let params =
        Ppat_harness.Runner.analysis_params app.prog app.params
      in
      match
        Ppat_codegen.Lower.lower dev
          ~opts:(Ppat_codegen.Lower.effective_options ())
          ~params app.prog n r.mapping
      with
      | lowered ->
        List.iter
          (fun (l : Ppat_kernel.Kir.launch) ->
            print_endline (Ppat_codegen.Cuda_emit.launch_comment l);
            print_endline (Ppat_codegen.Cuda_emit.kernel ~prog:app.prog l.kernel))
          lowered.launches
      | exception Ppat_codegen.Lower.Unsupported e ->
        Format.printf "// %s: unsupported (%s)@." n.pat.label e)

let cmd_explain name =
  let app = find_app name in
  Format.printf "%a@." Ppat_ir.Pat.pp_prog app.prog;
  iter_launches app (fun n ->
      let traced = ref [] in
      let c, d = decide ~trace:(fun t -> traced := t :: !traced) app n in
      Format.printf "@.%a@.%a@." Ppat_core.Collect.pp c
        (Ppat_profile.Report.pp_search ~limit:6)
        {
          Ppat_profile.Report.st_label = n.pat.Ppat_ir.Pat.label;
          st_result = d;
          st_candidates = List.rev !traced;
        })

(* ppat racecheck [APP...|--all] [--shuffle] — run the static race /
   barrier checker over every kernel the mapping pipeline stages for the
   selected apps; exit 1 if anything is flagged *)
let cmd_racecheck rest =
  let names = ref [] and all = ref false in
  List.iter
    (function
      | "--all" -> all := true
      | "--shuffle" -> Ppat_gpu.Tuning.shuffle_enabled := true
      | a -> names := a :: !names)
    rest;
  let names =
    if !all || !names = [] then List.map fst registry else List.rev !names
  in
  (* every name is checked before any app is staged *)
  let apps = List.map (fun name -> (name, app_ctor name)) names in
  let bad = ref 0 and kernels = ref 0 in
  List.iter
    (fun (name, mk) ->
      let app : A.App.t = mk () in
      let params =
        Ppat_harness.Runner.analysis_params app.prog app.params
      in
      Format.printf "%s:@." name;
      iter_launches app (fun n ->
          let _, r = decide app n in
          match
            Ppat_codegen.Lower.lower dev
              ~opts:(Ppat_codegen.Lower.effective_options ())
              ~params app.prog n r.mapping
          with
          | lowered ->
            List.iter
              (fun (l : Ppat_kernel.Kir.launch) ->
                incr kernels;
                let rep =
                  Ppat_check.Race.check
                    ~warp_size:dev.Ppat_gpu.Device.warp_size l
                in
                if Ppat_check.Race.clean rep then
                  Format.printf "  %-28s clean@." l.kernel.kname
                else begin
                  incr bad;
                  Format.printf "  %-28s FLAGGED@.%a" l.kernel.kname
                    Ppat_check.Race.pp_report rep
                end)
              lowered.launches
          | exception Ppat_codegen.Lower.Unsupported e ->
            Format.printf "  %s: unsupported (%s)@." n.pat.label e))
    apps;
  Format.printf "racecheck: %d kernel(s), %d flagged@." !kernels !bad;
  if !bad > 0 then exit 1

(* figures fan out over [jobs] pool domains; each one's output is
   captured on its worker and printed whole, in the order asked for *)
let cmd_figures ~jobs names =
  let all = A.Experiments.all dev in
  let selected = if names = [] then List.map fst all else names in
  (* every name is checked before any figure runs *)
  List.iter
    (fun name ->
      if not (List.mem_assoc name all) then
        usage_error
          (Printf.sprintf "figures: unknown figure %S (known: %s)" name
             (String.concat ", " (List.map fst all))))
    selected;
  Format.printf
    "Reproducing the evaluation of 'Locality-Aware Mapping of Nested \
     Parallel Patterns on GPUs' (MICRO 2014)@.on a simulated %s@."
    dev.Ppat_gpu.Device.dname;
  let tasks = Array.of_list selected in
  Ppat_parallel.pool_run ~jobs (Array.length tasks) (fun i ->
      let t0 = Unix.gettimeofday () in
      let out = Ppat_parallel.with_captured (List.assoc tasks.(i) all) in
      Printf.sprintf "%s  (%s regenerated in %.1f s of simulation)\n" out
        tasks.(i)
        (Unix.gettimeofday () -. t0))
  |> Array.iter print_string

(* ppat serve [--jobs N] [--socket PATH] [--plan-cache N] [--memo-cache N]
   — the persistent mapping service: line-delimited JSON requests on
   stdin (or a Unix socket), answers from the search memo and the
   staged-plan cache when it can *)
let cmd_serve rest =
  let jobs = ref None and socket = ref None in
  let plan_cap = ref 64 and memo_cap = ref 256 in
  let rec go = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
      jobs := Some (pos_int "--jobs" n);
      go rest
    | "--socket" :: p :: rest ->
      socket := Some p;
      go rest
    | "--plan-cache" :: n :: rest ->
      plan_cap := pos_int "--plan-cache" n;
      go rest
    | "--memo-cache" :: n :: rest ->
      memo_cap := pos_int "--memo-cache" n;
      go rest
    | arg :: _ -> usage_error (Printf.sprintf "serve: unexpected argument %S" arg)
  in
  go rest;
  let server =
    Ppat_serve.Serve.create ~device:dev ~memo_capacity:!memo_cap
      ~plan_capacity:!plan_cap ()
  in
  match !socket with
  | Some path ->
    Format.eprintf "ppat serve: listening on %s@." path;
    Ppat_serve.Serve.serve_socket ?jobs:!jobs server path
  | None -> Ppat_serve.Serve.serve_stdin ?jobs:!jobs server

let usage () =
  print_endline
    "usage: ppat <command>\n\
     \  list                      bundled applications\n\
     \  run APP [-s STRATEGY] [--engine E] [--cost-model M] [--sim-jobs N]\n\
     \                            simulate and validate (auto|1d|tbt|warp)\n\
     \  profile APP [-s STRATEGY] [--engine E] [--cost-model M] [--sim-jobs N]\n\
     \                            [--json FILE] [--chrome-trace FILE]\n\
     \                            per-kernel profile of a simulated run\n\
     \  report APP [-s STRATEGY] [--engine E] [--cost-model M] [--sim-jobs N]\n\
     \                            [--json FILE]\n\
     \                            per-access-site hot-spot table (transactions,\n\
     \                            conflicts, divergence, prediction error per\n\
     \                            buffer) plus the run's engine metrics\n\
     \  trace-search APP [-s STRATEGY] [--cost-model M] [--json FILE]\n\
     \                            ranked trace of the mapping search\n\
     \  modelcmp APP [--engine E] [--top K] [--json FILE]\n\
     \                            rank the mapping space under every cost\n\
     \                            model; report rank correlation and regret\n\
     \                            against the simulator\n\
     \  sweep APP [--engine E] [--budget N] [--jobs N] [--sim-jobs N]\n\
     \                            [--json FILE]\n\
     \                            mapping-space sweep: simulate the selected\n\
     \                            candidates, fit the predictor calibration\n\
     \                            and report before/after rank quality;\n\
     \                            --budget caps simulations (active learning\n\
     \                            picks where the cost models disagree),\n\
     \                            --jobs fans candidates out on the pool\n\
     \  serve [--jobs N] [--socket PATH] [--plan-cache N] [--memo-cache N]\n\
     \                            persistent mapping service: line-delimited\n\
     \                            JSON requests (schema ppat-serve/1) on stdin\n\
     \                            or a Unix socket; repeats are answered from\n\
     \                            the memoised search and staged-plan caches\n\
     \  racecheck [APP...|--all] [--shuffle]\n\
     \                            static shared-memory race / barrier-\n\
     \                            divergence check over the staged kernels\n\
     \  cuda APP                  print generated CUDA kernels\n\
     \  explain APP               constraints and mapping decisions\n\
     \  figures [FIG...] [--jobs N]\n\
     \                            regenerate paper figures (fig3, fig12..fig17,\n\
     \                            ablation), N at a time (default: one per core)\n\
     \  --engine compiled|reference selects the SIMT execution engine\n\
     \                            (default: compiled, or $PPAT_ENGINE)\n\
     \  --cost-model soft|analytical|hybrid selects the search cost model\n\
     \                            (default: soft, or $PPAT_COST_MODEL)\n\
     \  --sim-jobs N              worker domains for intra-launch parallel\n\
     \                            simulation; statistics are identical at\n\
     \                            any N (default: 1, or $PPAT_SIM_JOBS)\n\
     \  --shuffle                 synthesise warp-shuffle tree reductions in\n\
     \                            place of shared-memory trees when the level\n\
     \                            fits one warp (default: off, or $PPAT_SHUFFLE)"

type flags = {
  f_strat : Ppat_core.Strategy.t;
  f_engine : Ppat_kernel.Interp.engine;
  f_model : Cost_model.kind;
  f_json : string option;
  f_chrome : string option;
  f_top : int;
  f_sim_jobs : int;
  f_jobs : int;
  f_budget : int;
}

(* the flags of [cmd], in any order; [takes] lists the ones it reads
   (["-s"; "--engine"; "--cost-model"; "--json"; "--chrome-trace";
   "--top"; "--sim-jobs"; "--jobs"; "--budget"; "--shuffle"]) and any
   other argument is a usage error naming it *)
let parse_flags cmd ~takes rest =
  let strat = ref Ppat_core.Strategy.Auto in
  let engine = ref (Ppat_kernel.Interp.default_engine ()) in
  let model = ref (Cost_model.default ()) in
  let json = ref None and chrome = ref None in
  let top = ref 6 in
  let sim_jobs = ref (Ppat_kernel.Interp.default_jobs ()) in
  let jobs = ref (Ppat_parallel.default_jobs ()) in
  let budget = ref 0 in
  let rec go = function
    | [] -> ()
    | flag :: _ when not (List.mem flag takes) ->
      usage_error
        (Printf.sprintf "%s: %s is not accepted (takes %s)" cmd flag
           (String.concat " " takes))
    | "-s" :: s :: rest ->
      strat := or_usage (Ppat_core.Strategy.of_string ~name:"-s" s);
      go rest
    | "--engine" :: e :: rest ->
      engine := or_usage (Ppat_kernel.Interp.engine_of_string ~name:"--engine" e);
      go rest
    | "--shuffle" :: rest ->
      (* process-wide: the lowering's effective options, the predictor's
         pricing and the canonical cache keys all read this knob *)
      Ppat_gpu.Tuning.shuffle_enabled := true;
      go rest
    | "--cost-model" :: m :: rest ->
      model :=
        or_usage
          (Result.map_error (( ^ ) "--cost-model: ") (Cost_model.of_string m));
      go rest
    | "--json" :: f :: rest ->
      json := Some (output_file "--json" f);
      go rest
    | "--chrome-trace" :: f :: rest ->
      chrome := Some (output_file "--chrome-trace" f);
      go rest
    | "--sim-jobs" :: n :: rest ->
      sim_jobs := min (pos_int "--sim-jobs" n) Ppat_parallel.max_jobs;
      go rest
    | "--top" :: k :: rest ->
      top := pos_int "--top" k;
      go rest
    | "--jobs" :: n :: rest ->
      jobs := jobs_flag n;
      go rest
    | "--budget" :: n :: rest ->
      budget := pos_int "--budget" n;
      go rest
    | flag :: _ -> usage_error (Printf.sprintf "%s: %s needs a value" cmd flag)
  in
  go rest;
  {
    f_strat = !strat;
    f_engine = !engine;
    f_model = !model;
    f_json = !json;
    f_chrome = !chrome;
    f_top = !top;
    f_sim_jobs = !sim_jobs;
    f_jobs = !jobs;
    f_budget = !budget;
  }

(* what every simulating command reads *)
let sim_flags = [ "-s"; "--engine"; "--cost-model"; "--sim-jobs"; "--shuffle" ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "list" :: _ -> cmd_list ()
  | _ :: "run" :: name :: rest ->
    let f = parse_flags "run" ~takes:sim_flags rest in
    cmd_run name f.f_strat f.f_engine f.f_model f.f_sim_jobs
  | _ :: "profile" :: name :: rest ->
    let f =
      parse_flags "profile" ~takes:(sim_flags @ [ "--json"; "--chrome-trace" ])
        rest
    in
    cmd_profile name f.f_strat f.f_engine f.f_model f.f_sim_jobs f.f_json
      f.f_chrome
  | _ :: "report" :: name :: rest ->
    let f = parse_flags "report" ~takes:(sim_flags @ [ "--json" ]) rest in
    cmd_report name f.f_strat f.f_engine f.f_model f.f_sim_jobs f.f_json
  | _ :: "trace-search" :: name :: rest ->
    let f =
      parse_flags "trace-search"
        ~takes:[ "-s"; "--cost-model"; "--json"; "--shuffle" ]
        rest
    in
    cmd_trace_search name f.f_strat f.f_model f.f_json
  | _ :: "modelcmp" :: name :: rest ->
    let f =
      parse_flags "modelcmp"
        ~takes:[ "--engine"; "--top"; "--json"; "--shuffle" ]
        rest
    in
    cmd_modelcmp name f.f_engine f.f_top f.f_json
  | _ :: "sweep" :: name :: rest ->
    let f =
      parse_flags "sweep"
        ~takes:
          [ "--engine"; "--budget"; "--jobs"; "--sim-jobs"; "--json"; "--shuffle" ]
        rest
    in
    cmd_sweep name f.f_engine f.f_sim_jobs f.f_jobs f.f_budget f.f_json
  | _ :: "serve" :: rest -> cmd_serve rest
  | _ :: "racecheck" :: rest -> cmd_racecheck rest
  | _ :: "cuda" :: name :: rest ->
    ignore (parse_flags "cuda" ~takes:[ "--shuffle" ] rest);
    cmd_cuda name
  | [ _; "explain"; name ] -> cmd_explain name
  | _ :: "explain" :: _ :: arg :: _ ->
    usage_error (Printf.sprintf "explain: unexpected argument %S" arg)
  | _ :: "figures" :: rest ->
    let jobs = ref (Ppat_parallel.default_jobs ()) in
    let rec figures = function
      | "--jobs" :: n :: rest ->
        jobs := jobs_flag n;
        figures rest
      | name :: rest -> name :: figures rest
      | [] -> []
    in
    let names = figures rest in
    cmd_figures ~jobs:!jobs names
  | _ ->
    usage ();
    exit 1
