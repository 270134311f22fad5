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
     mapspace APP [--top K] [--jobs N] [--json F]
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

let cmd_run name strat engine model sim_jobs opts =
  let app = find_app name in
  let data = A.App.input_data app in
  Format.printf "running %s (CPU oracle first)...@." app.A.App.name;
  let cpu = Ppat_harness.Runner.run_cpu ~params:app.params app.prog data in
  Format.printf "CPU model: %.4g s@." cpu.cpu_seconds;
  let r =
    Ppat_harness.Runner.run_gpu ~engine ~sim_jobs ~opts ~params:app.params
      ~model dev app.prog strat data
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
let attributed_run name strat engine model sim_jobs opts =
  let app = find_app name in
  let data = A.App.input_data app in
  Ppat_profile.Metrics.reset ();
  Ppat_profile.Metrics.set_span_recording true;
  let r =
    Ppat_harness.Runner.run_gpu ~engine ~sim_jobs ~opts ~attr:true
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

let cmd_profile name strat engine model sim_jobs opts json chrome =
  let r, run = attributed_run name strat engine model sim_jobs opts in
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

let cmd_report name strat engine model sim_jobs opts json =
  let _, run = attributed_run name strat engine model sim_jobs opts in
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

let decide ?trace ?model ?(strat = Ppat_core.Strategy.Auto)
    (opts : Ppat_codegen.Lower.options) (app : A.App.t) n =
  let c =
    Ppat_core.Collect.collect
      ~params:(Ppat_harness.Runner.analysis_params app.prog app.params)
      ?bind:n.Ppat_ir.Pat.bind dev app.prog n.Ppat_ir.Pat.pat
  in
  (c, Ppat_core.Strategy.decide ?trace ?model ~shuffle:opts.shuffle dev c strat)

let cmd_trace_search name strat model opts json =
  let app = find_app name in
  let traces = ref [] in
  List.iter
    (fun (n : Ppat_ir.Pat.nested) ->
      let candidates = ref [] in
      let _, decision =
        decide
          ~trace:(fun t -> candidates := t :: !candidates)
          ~model ~strat opts app n
      in
      let st =
        {
          Ppat_profile.Report.st_label = n.pat.Ppat_ir.Pat.label;
          st_result = decision;
          st_candidates = List.rev !candidates;
        }
      in
      traces := st :: !traces;
      Format.printf "%a@.@." (Ppat_profile.Report.pp_search ~limit:16) st)
    (Ppat_ir.Pat.launches app.prog);
  match json with
  | None -> ()
  | Some f ->
    Ppat_profile.Jsonx.to_file f
      (Ppat_profile.Jsonx.List
         (List.rev_map Ppat_profile.Report.json_of_search !traces));
    Format.printf "wrote search trace to %s@." f

(* ----- mapspace: rank the target pattern's mapping space under every
   cost model and compare against the simulator (Runner.mapspace) ----- *)

let cmd_mapspace name engine sim_jobs (opts : Ppat_codegen.Lower.options) jobs
    top json =
  let app = find_app name in
  let r =
    match
      Ppat_harness.Runner.mapspace ~engine ~sim_jobs ~jobs ~opts
        ~params:app.params ~top dev app.prog (A.App.input_data app)
    with
    | Ok r -> r
    | Error e ->
      Format.eprintf "mapspace %s: %s@." name e;
      exit 1
  in
  let ts = r.ms_space and st = r.ms_stats in
  let cands = ts.ts_candidates and label = ts.ts_target.pat.Ppat_ir.Pat.label in
  let n = Array.length cands in
  let mapping i = Ppat_core.Mapping.to_string cands.(i) in
  let fnum x = if Float.is_nan x then "n/a" else Printf.sprintf "%.3f" x in
  Format.printf
    "mapspace %s: target pattern %S, %d unique hard-feasible mappings (%d \
     duplicate(s) dropped), %d simulated (top-%d per model + stride-%d \
     sample)@."
    name label n ts.ts_duplicates (List.length r.ms_seconds) top
    (Ppat_core.Sweep.stride n);
  Format.printf "  %d sampled, %d shape(s), %d failed in %.3fs@."
    st.sw_candidates st.sw_shapes st.sw_failed st.sw_wall_seconds;
  Format.printf "  %-12s %-9s %-8s selected mapping@." "model" "spearman"
    "regret";
  List.iter
    (fun (m : Ppat_harness.Runner.model_report) ->
      Format.printf "  %-12s %-9s %-8s %s@." (Cost_model.name m.mr_model)
        (fnum m.mr_spearman)
        (if Float.is_nan m.mr_regret then "n/a"
         else Printf.sprintf "%.1f%%" (100. *. m.mr_regret))
        (mapping m.mr_selected))
    r.ms_models;
  Format.printf
    "predictor cycles vs simulated seconds: spearman %s over %d mappings@."
    (fnum r.ms_predictor_spearman)
    (List.length r.ms_seconds);
  match json with
  | None -> ()
  | Some f ->
    let open Ppat_profile.Jsonx in
    (* [number], not [Float]: spearman is undefined (nan) on constant
       rankings and regret on a pick that failed to simulate — both must
       reach the file as explicit nulls, never as invalid tokens *)
    let opt_number = function Some x -> number x | None -> Null in
    let field k f = Option.fold ~none:[] ~some:(fun v -> [ (k, f v) ]) in
    let j =
      Obj
        [
          ("schema", Str "ppat-mapspace/1");
          ("app", Str name);
          ("pattern", Str label);
          ("population", Int n);
          ("duplicates_dropped", Int ts.ts_duplicates);
          ("top", Int top);
          ("stride", Int (Ppat_core.Sweep.stride n));
          ("sampled", Int st.sw_candidates);
          ("simulated", Int (List.length r.ms_seconds));
          ("shapes", Int st.sw_shapes);
          ("failed", Int st.sw_failed);
          ("wall_seconds", number st.sw_wall_seconds);
          ("predictor_spearman", number r.ms_predictor_spearman);
          ( "models",
            List
              (List.map
                 (fun (m : Ppat_harness.Runner.model_report) ->
                   Obj
                     [
                       ("model", Str (Cost_model.name m.mr_model));
                       ("spearman", number m.mr_spearman);
                       ("regret", number m.mr_regret);
                       ("selected_mapping", Str (mapping m.mr_selected));
                       ( "selected_sim_seconds",
                         opt_number (List.assoc_opt m.mr_selected r.ms_seconds) );
                       ( "selected_predicted_cycles",
                         opt_number m.mr_selected_cycles );
                     ])
                 r.ms_models) );
          ( "sample",
            List
              (Array.to_list
                 (Array.mapi
                    (fun k (c : Ppat_harness.Runner.sweep_candidate) ->
                      Obj
                        ([ ("mapping", Str (mapping r.ms_sample.(k))) ]
                        @ field "shape" (fun s -> Str s) c.sc_shape
                        @ field "digest" (fun d -> Str d) c.sc_digest
                        @ field "sim_seconds" number c.sc_target_seconds
                        @
                        match c.sc_result with
                        | Error e -> [ ("error", Str e) ]
                        | Ok _ -> []))
                    r.ms_results)) );
        ]
    in
    to_file f j;
    Format.printf "wrote mapspace report to %s@." f

let cmd_cuda name opts =
  let app = find_app name in
  List.iter
    (fun (n : Ppat_ir.Pat.nested) ->
      let _, r = decide opts app n in
      let params =
        Ppat_harness.Runner.analysis_params app.prog app.params
      in
      match Ppat_codegen.Lower.lower dev ~opts ~params app.prog n r.mapping with
      | lowered ->
        List.iter
          (fun (l : Ppat_kernel.Kir.launch) ->
            print_endline (Ppat_codegen.Cuda_emit.launch_comment l);
            print_endline (Ppat_codegen.Cuda_emit.kernel ~prog:app.prog l.kernel))
          lowered.launches
      | exception Ppat_codegen.Lower.Unsupported e ->
        Format.printf "// %s: unsupported (%s)@." n.pat.label e)
    (Ppat_ir.Pat.launches app.prog)

let cmd_explain name =
  let app = find_app name in
  let opts = Ppat_codegen.Lower.effective_options () in
  Format.printf "%a@." Ppat_ir.Pat.pp_prog app.prog;
  List.iter
    (fun (n : Ppat_ir.Pat.nested) ->
      let traced = ref [] in
      let c, d = decide ~trace:(fun t -> traced := t :: !traced) opts app n in
      Format.printf "@.%a@.%a@." Ppat_core.Collect.pp c
        (Ppat_profile.Report.pp_search ~limit:6)
        {
          Ppat_profile.Report.st_label = n.pat.Ppat_ir.Pat.label;
          st_result = d;
          st_candidates = List.rev !traced;
        })
    (Ppat_ir.Pat.launches app.prog)

(* ppat racecheck [APP...|--all] [--shuffle] — run the static race /
   barrier checker over every kernel the mapping pipeline stages for the
   selected apps; exit 1 if anything is flagged *)
let cmd_racecheck rest =
  let names = ref [] and all = ref false in
  let opts = ref (Ppat_codegen.Lower.effective_options ()) in
  List.iter
    (function
      | "--all" -> all := true
      | "--shuffle" -> opts := { !opts with shuffle = true }
      | a -> names := a :: !names)
    rest;
  let opts = !opts in
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
      List.iter
        (fun (n : Ppat_ir.Pat.nested) ->
          let _, r = decide opts app n in
          match
            Ppat_codegen.Lower.lower dev ~opts ~params app.prog n r.mapping
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
            Format.printf "  %s: unsupported (%s)@." n.pat.label e)
        (Ppat_ir.Pat.launches app.prog))
    apps;
  Format.printf "racecheck: %d kernel(s), %d flagged@." !kernels !bad;
  if !bad > 0 then exit 1

(* figures fan out over [jobs] pool domains; each one's table is printed
   whole, in the order asked for, and any cell that failed validation
   fails the command *)
let cmd_figures ~jobs names =
  let all = A.Experiments.all ~jobs dev in
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
  let failed =
    Ppat_parallel.pool_run ~jobs (Array.length tasks) (fun i ->
        let t0 = Unix.gettimeofday () in
        let table = List.assoc tasks.(i) all () in
        ( Format.asprintf "%a  (%s regenerated in %.1f s of simulation)@."
            A.Experiments.print_table table tasks.(i)
            (Unix.gettimeofday () -. t0),
          List.map
            (fun (row, variant) -> (tasks.(i), row, variant))
            (A.Experiments.failures table) ))
    |> Array.to_list
    |> List.concat_map (fun (out, failed) ->
           print_string out;
           failed)
  in
  List.iter
    (fun (fig, row, variant) ->
      Format.eprintf
        "ppat: figures: %s, row %S, variant %S failed validation against \
         the CPU reference@."
        fig row variant)
    failed;
  if failed <> [] then exit 1

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

let usage =
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
     \  mapspace APP [--top K] [--engine E] [--jobs N] [--sim-jobs N]\n\
     \                            [--shuffle] [--json FILE]\n\
     \                            rank the mapping space under every cost\n\
     \                            model, simulate each model's top K (default\n\
     \                            6) plus a strided sample, N at a time, and\n\
     \                            report rank correlation and regret\n\
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
  f_opts : Ppat_codegen.Lower.options;
}

(* the flags of [cmd], in any order; [takes] lists the ones it reads
   (["-s"; "--engine"; "--cost-model"; "--json"; "--chrome-trace";
   "--top"; "--sim-jobs"; "--jobs"; "--shuffle"]) and any
   other argument is a usage error naming it *)
let parse_flags cmd ~takes rest =
  let strat = ref Ppat_core.Strategy.Auto in
  let engine = ref (Ppat_kernel.Interp.default_engine ()) in
  let model = ref (Cost_model.default ()) in
  let json = ref None and chrome = ref None in
  let top = ref 6 in
  let sim_jobs = ref (Ppat_kernel.Interp.default_jobs ()) in
  let jobs = ref (Ppat_parallel.default_jobs ()) in
  let opts = ref (Ppat_codegen.Lower.effective_options ()) in
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
      opts := { !opts with shuffle = true };
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
    f_opts = !opts;
  }

(* what every simulating command reads *)
let sim_flags = [ "-s"; "--engine"; "--cost-model"; "--sim-jobs"; "--shuffle" ]

let app_commands =
  [ "run"; "profile"; "report"; "trace-search"; "mapspace"; "cuda"; "explain" ]

let main () =
  match Array.to_list Sys.argv with
  | _ :: "list" :: _ -> cmd_list ()
  | _ :: "run" :: name :: rest ->
    let f = parse_flags "run" ~takes:sim_flags rest in
    cmd_run name f.f_strat f.f_engine f.f_model f.f_sim_jobs f.f_opts
  | _ :: "profile" :: name :: rest ->
    let f =
      parse_flags "profile" ~takes:(sim_flags @ [ "--json"; "--chrome-trace" ])
        rest
    in
    cmd_profile name f.f_strat f.f_engine f.f_model f.f_sim_jobs f.f_opts
      f.f_json f.f_chrome
  | _ :: "report" :: name :: rest ->
    let f = parse_flags "report" ~takes:(sim_flags @ [ "--json" ]) rest in
    cmd_report name f.f_strat f.f_engine f.f_model f.f_sim_jobs f.f_opts
      f.f_json
  | _ :: "trace-search" :: name :: rest ->
    let f =
      parse_flags "trace-search"
        ~takes:[ "-s"; "--cost-model"; "--json"; "--shuffle" ]
        rest
    in
    cmd_trace_search name f.f_strat f.f_model f.f_opts f.f_json
  | _ :: "mapspace" :: name :: rest ->
    let f =
      parse_flags "mapspace"
        ~takes:
          [ "--top"; "--engine"; "--jobs"; "--sim-jobs"; "--shuffle"; "--json" ]
        rest
    in
    cmd_mapspace name f.f_engine f.f_sim_jobs f.f_opts f.f_jobs f.f_top f.f_json
  | _ :: "serve" :: rest -> cmd_serve rest
  | _ :: "racecheck" :: rest -> cmd_racecheck rest
  | _ :: "cuda" :: name :: rest ->
    cmd_cuda name (parse_flags "cuda" ~takes:[ "--shuffle" ] rest).f_opts
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
  | _ :: cmd :: _ ->
    (* an unknown command, or one that needs an APP given none *)
    prerr_endline
      (if List.mem cmd app_commands then
         Printf.sprintf "ppat: %s: missing APP" cmd
       else Printf.sprintf "ppat: unknown command %S" cmd);
    prerr_endline usage;
    exit 2
  | _ ->
    prerr_endline usage;
    exit 2

(* a malformed PPAT_* variable, read wherever a command first needs it,
   is a usage error naming the variable *)
let () =
  try main () with Ppat_gpu.Tuning.Bad_env msg -> usage_error msg
