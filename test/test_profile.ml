(* The observability layer: per-kernel profile records, the JSON and
   Chrome-trace exporters, the mapping-search trace, and the timing-model
   bound classification it reports. *)
module Jsonx = Ppat_profile.Jsonx
module Record = Ppat_profile.Record
module Report = Ppat_profile.Report
module Chrome = Ppat_profile.Chrome_trace
module Stats = Ppat_gpu.Stats
module Timing = Ppat_gpu.Timing
module Search = Ppat_core.Search
module Strategy = Ppat_core.Strategy
module Runner = Ppat_harness.Runner

let dev = Ppat_gpu.Device.k20c

let profiled_run ?(strat = Strategy.Auto) (app : Ppat_apps.App.t) =
  let data = Ppat_apps.App.input_data app in
  let r = Runner.run_gpu ~params:app.params dev app.prog strat data in
  ( r,
    Record.make_run ~app:app.name ~strategy:(Strategy.name strat)
      ~device:dev.dname ~total_seconds:r.seconds r.profile )

(* ----- per-kernel records ----- *)

let check_stats_equal msg (a : Stats.t) (b : Stats.t) =
  List.iter2
    (fun (name, va) (name', vb) ->
      Alcotest.(check string) "field order" name name';
      Alcotest.(check (float 1e-9)) (msg ^ ": " ^ name) va vb)
    (Stats.to_assoc a) (Stats.to_assoc b)

let test_records_sum_to_aggregate () =
  (* sum_cols lowers to a main kernel plus a split combiner: two launches,
     whose per-kernel stats must sum back to the run aggregate *)
  let r, run = profiled_run (Ppat_apps.Sum_rows_cols.sum_cols ~r:512 ~c:64 ()) in
  Alcotest.(check int) "one record per launch" r.kernels
    (List.length r.profile);
  Alcotest.(check bool) "several kernels" true (r.kernels >= 2);
  check_stats_equal "per-kernel sum" r.stats (Record.sum_stats r.profile);
  check_stats_equal "run aggregate" r.stats run.aggregate;
  (* seconds also decompose: breakdowns include launch overhead *)
  let t =
    List.fold_left
      (fun acc (k : Record.kernel) -> acc +. k.breakdown.Timing.seconds)
      0. r.profile
  in
  Alcotest.(check bool) "seconds decompose" true
    (Float.abs (t -. r.seconds) <= 1e-12 *. Float.max 1. r.seconds);
  List.iteri
    (fun i (k : Record.kernel) ->
      Alcotest.(check int) "launch order" i k.index;
      Alcotest.(check bool) "label" true (k.label <> "");
      Alcotest.(check bool) "kernel name" true (k.kname <> "");
      Alcotest.(check bool) "provenance" true (k.via <> "");
      let gx, gy, gz = k.grid and bx, by, bz = k.block in
      Alcotest.(check bool) "geometry" true
        (gx > 0 && gy > 0 && gz > 0 && bx > 0 && by > 0 && bz > 0))
    r.profile

(* ----- JSON exporter ----- *)

let test_json_roundtrip () =
  let _, run = profiled_run (Ppat_apps.Sum_rows_cols.sum_cols ~r:512 ~c:64 ()) in
  let j = Record.json_of_run run in
  let s = Jsonx.to_string j in
  (match Jsonx.of_string s with
   | Error e -> Alcotest.fail ("reparse failed: " ^ e)
   | Ok j' ->
     Alcotest.(check bool) "round-trips exactly" true (Jsonx.equal j j'));
  (* minified output round-trips too *)
  (match Jsonx.of_string (Jsonx.to_string ~minify:true j) with
   | Error e -> Alcotest.fail ("minified reparse failed: " ^ e)
   | Ok j' -> Alcotest.(check bool) "minified round-trip" true (Jsonx.equal j j'));
  (* spot-check the schema *)
  let get k j = match Jsonx.member k j with Some v -> v | None ->
    Alcotest.fail ("missing key " ^ k) in
  Alcotest.(check (option string)) "schema" (Some "ppat-profile/4")
    (Jsonx.to_str (get "schema" j));
  Alcotest.(check (option int)) "sim_jobs"
    (Some 1)
    (Jsonx.to_int (get "sim_jobs" j));
  let kernels = Option.get (Jsonx.to_list (get "kernels" j)) in
  Alcotest.(check (option int)) "kernel_count"
    (Some (List.length kernels))
    (Jsonx.to_int (get "kernel_count" j));
  List.iter
    (fun k ->
      List.iter
        (fun field -> ignore (get field k))
        [ "index"; "label"; "kernel"; "grid"; "block"; "mapping"; "via";
          "timing"; "stats"; "sim_wall_seconds"; "predicted_cycles";
          "prediction_error" ];
      (* stats fields come straight from Stats.to_assoc, so the exporter
         cannot drift from the record *)
      let stats = get "stats" k in
      List.iter
        (fun (name, _) -> ignore (get name stats))
        (Stats.to_assoc (Stats.create ()));
      ignore (get "l2_hit_rate" stats);
      ignore (get "bytes_per_transaction" stats))
    kernels

let test_jsonx_escaping () =
  let j =
    Jsonx.Obj
      [
        ("quote\"back\\slash", Jsonx.Str "line\nbreak\ttab");
        ("unicode", Jsonx.Str "caf\xc3\xa9");
        ("numbers", Jsonx.List [ Jsonx.Int (-3); Jsonx.Float 0.1; Jsonx.Float 1e300 ]);
        ("empty", Jsonx.List []);
        ("null", Jsonx.Null);
        ("bool", Jsonx.Bool false);
      ]
  in
  match Jsonx.of_string (Jsonx.to_string j) with
  | Error e -> Alcotest.fail e
  | Ok j' -> Alcotest.(check bool) "escapes round-trip" true (Jsonx.equal j j')

(* ----- Chrome trace ----- *)

let test_chrome_trace_well_formed () =
  let r, run = profiled_run (Ppat_apps.Sum_rows_cols.sum_cols ~r:512 ~c:64 ()) in
  let j = Chrome.export run in
  (* the document itself must be valid JSON *)
  let j =
    match Jsonx.of_string (Jsonx.to_string j) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("invalid JSON: " ^ e)
  in
  let events =
    match Jsonx.member "traceEvents" j with
    | Some (Jsonx.List es) -> es
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let str k e = Option.bind (Jsonx.member k e) Jsonx.to_str in
  let num k e = Option.bind (Jsonx.member k e) Jsonx.to_float in
  let slices =
    List.filter (fun e -> str "ph" e = Some "X") events
  in
  (* one slice per (kernel, active SM) *)
  let expected_slices =
    List.fold_left
      (fun acc (k : Record.kernel) -> acc + k.breakdown.Timing.active_sms)
      0 r.profile
  in
  Alcotest.(check int) "slice count" expected_slices (List.length slices);
  List.iter
    (fun e ->
      Alcotest.(check bool) "slice has name" true (str "name" e <> None);
      Alcotest.(check bool) "slice has ts" true (num "ts" e <> None);
      Alcotest.(check bool) "dur >= 0" true
        (match num "dur" e with Some d -> d >= 0. | None -> false);
      Alcotest.(check bool) "tid in SM range" true
        (match Option.bind (Jsonx.member "tid" e) Jsonx.to_int with
         | Some tid -> tid >= 0 && tid < dev.sm_count
         | None -> false);
      let args = Jsonx.member "args" e in
      Alcotest.(check bool) "args carry the bound" true
        (match Option.bind args (Jsonx.member "bound") with
         | Some (Jsonx.Str ("compute" | "bandwidth" | "latency")) -> true
         | _ -> false))
    slices;
  (* slices on one track must not overlap: sorted by ts, each starts at or
     after the previous end *)
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let tid = Option.get (Option.bind (Jsonx.member "tid" e) Jsonx.to_int) in
      let ts = Option.get (num "ts" e) and dur = Option.get (num "dur" e) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid tid) in
      Hashtbl.replace by_tid tid ((ts, dur) :: prev))
    slices;
  Hashtbl.iter
    (fun _ spans ->
      let sorted = List.sort compare (List.rev spans) in
      ignore
        (List.fold_left
           (fun last (ts, dur) ->
             Alcotest.(check bool) "no overlap" true (ts >= last -. 1e-9);
             ts +. dur)
           0. sorted))
    by_tid;
  (* metadata names the process and each SM track *)
  Alcotest.(check bool) "process_name metadata" true
    (List.exists (fun e -> str "name" e = Some "process_name") events)

(* ----- timing-model bound classification ----- *)

let synthetic ~warp_insts ~mem_insts ~transactions ~bytes () =
  let s = Stats.create () in
  s.Stats.warp_insts <- warp_insts;
  s.Stats.mem_insts <- mem_insts;
  s.Stats.transactions <- transactions;
  s.Stats.bytes <- bytes;
  s

let test_bound_classification () =
  let g : Timing.geometry = { grid = (256, 1, 1); block = (256, 1, 1) } in
  (* compute: instruction-heavy, almost no memory traffic *)
  let compute =
    Timing.estimate dev g
      (synthetic ~warp_insts:1e8 ~mem_insts:1e3 ~transactions:1e3
         ~bytes:1.28e5 ())
  in
  Alcotest.(check string) "compute" "compute"
    (Timing.string_of_bound compute.Timing.bound);
  (* bandwidth: plenty of parallelism, vast DRAM traffic *)
  let bandwidth =
    Timing.estimate dev g
      (synthetic ~warp_insts:1e5 ~mem_insts:1e5 ~transactions:1e6
         ~bytes:1.28e8 ())
  in
  Alcotest.(check string) "bandwidth" "bandwidth"
    (Timing.string_of_bound bandwidth.Timing.bound);
  (* latency: a single tiny block exposes full memory latency *)
  let latency =
    Timing.estimate dev
      { grid = (1, 1, 1); block = (32, 1, 1) }
      (synthetic ~warp_insts:1e4 ~mem_insts:1e4 ~transactions:1e4
         ~bytes:1.28e6 ())
  in
  Alcotest.(check string) "latency" "latency"
    (Timing.string_of_bound latency.Timing.bound);
  (* kernel_estimate only adds the fixed launch overhead *)
  let ke = Timing.kernel_estimate dev g (synthetic ~warp_insts:1e5 ~mem_insts:1e5 ~transactions:1e6 ~bytes:1.28e8 ()) in
  Alcotest.(check (float 1e-12)) "launch overhead folded in"
    (bandwidth.Timing.seconds +. (dev.kernel_launch_us *. 1e-6))
    ke.Timing.seconds

(* ----- search trace ----- *)

let collect_first (app : Ppat_apps.App.t) =
  let prog = app.prog in
  let n = List.hd (Ppat_ir.Pat.launches prog) in
  ( n.pat.Ppat_ir.Pat.label,
    Ppat_core.Collect.collect
      ~params:(Runner.analysis_params prog app.params)
      ?bind:n.bind dev prog n.pat )

let test_search_trace () =
  let label, c = collect_first (Ppat_apps.Sum_rows_cols.sum_cols ~r:512 ~c:64 ()) in
  let traced = ref [] in
  let decision =
    Strategy.decide ~trace:(fun t -> traced := t :: !traced)
      ~model:Ppat_core.Cost_model.Soft dev c Strategy.Auto
  in
  let traced = List.rev !traced in
  let feasible, pruned =
    List.partition (fun (t : Search.traced) -> t.t_pruned = []) traced
  in
  (* tracing observes exactly the candidates the search counted *)
  let untraced = Search.search ~model:Ppat_core.Cost_model.Soft dev c in
  Alcotest.(check int) "feasible = candidates counted" untraced.candidates
    (List.length feasible);
  Alcotest.(check bool) "tracing does not change the outcome" true
    (Ppat_core.Mapping.equal decision.mapping untraced.mapping);
  Alcotest.(check bool) "hard-pruned candidates surface" true
    (List.length pruned >= 2);
  List.iter
    (fun (t : Search.traced) ->
      Alcotest.(check bool) "pruned reason is descriptive" true
        (List.exists
           (fun r ->
             String.length r > 0
             && (String.length r < 7 || String.sub r 0 7 <> "Failure"))
           t.t_pruned))
    pruned;
  (* the ranked report: chosen first, >= 2 rejected with verdicts *)
  let st =
    { Report.st_label = label; st_result = decision; st_candidates = traced }
  in
  let ranked = Report.ranked st in
  (match ranked with
   | first :: _ ->
     Alcotest.(check string) "chosen ranks first" "CHOSEN"
       (Report.verdict st first);
     Alcotest.(check bool) "chosen is the raw winner" true
       (Ppat_core.Mapping.equal first.t_mapping decision.raw_mapping)
   | [] -> Alcotest.fail "empty ranking");
  let rejected =
    List.filter
      (fun t ->
        let v = Report.verdict st t in
        String.length v >= 8 && String.sub v 0 8 = "rejected")
      ranked
  in
  Alcotest.(check bool) ">= 2 rejected candidates" true
    (List.length rejected >= 2);
  (* every soft-constraint delta is reported per candidate *)
  List.iter
    (fun (t : Search.traced) ->
      Alcotest.(check int) "soft components cover all softs"
        (List.length c.softs) (List.length t.t_softs))
    traced;
  (* the rendered table and the JSON export both materialise *)
  let txt = Format.asprintf "%a" (Report.pp_search ~limit:8) st in
  Alcotest.(check bool) "table mentions CHOSEN" true
    (Astring_like.contains txt "CHOSEN");
  Alcotest.(check bool) "table mentions rejection" true
    (Astring_like.contains txt "rejected");
  Alcotest.(check bool) "table mentions pruning" true
    (Astring_like.contains txt "pruned");
  match Jsonx.of_string (Jsonx.to_string (Report.json_of_search st)) with
  | Error e -> Alcotest.fail ("search JSON invalid: " ^ e)
  | Ok j ->
    Alcotest.(check (option string)) "search schema"
      (Some "ppat-search-trace/2")
      (Option.bind (Jsonx.member "schema" j) Jsonx.to_str)

let test_preset_trace () =
  let _, c = collect_first (Ppat_apps.Sum_rows_cols.sum_rows ~r:512 ~c:64 ()) in
  let traced = ref [] in
  let d =
    Strategy.decide ~trace:(fun t -> traced := t :: !traced) dev c
      Strategy.Warp_based
  in
  match !traced with
  | [ t ] ->
    Alcotest.(check bool) "preset trace carries the preset" true
      (Ppat_core.Mapping.equal t.Search.t_mapping d.mapping);
    Alcotest.(check (float 0.)) "preset score" d.score t.Search.t_score
  | l -> Alcotest.fail (Printf.sprintf "expected 1 traced, got %d" (List.length l))

(* ----- the check-error satellite: missing buffers name themselves ----- *)

let test_check_missing_buffer () =
  let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:8 ~c:8 () in
  let data = Ppat_apps.App.input_data app in
  let cpu = Runner.run_cpu ~params:app.params app.prog data in
  match
    Runner.check app.prog ~expected:cpu.cpu_data
      ~actual:(List.filter (fun (n, _) -> n <> "out") cpu.cpu_data)
  with
  | Ok () -> Alcotest.fail "missing buffer must not pass"
  | Error e ->
    Alcotest.(check bool) "names the buffer" true
      (Astring_like.contains e "\"out\"");
    Alcotest.(check bool) "names the side" true
      (Astring_like.contains e "actual")

(* ----- derived stats metrics ----- *)

let test_stats_derived () =
  let s = Stats.create () in
  s.Stats.bytes <- 300.;
  s.Stats.l2_bytes <- 100.;
  s.Stats.transactions <- 4.;
  Alcotest.(check (float 1e-9)) "l2 hit rate" 0.25 (Stats.l2_hit_rate s);
  Alcotest.(check (float 1e-9)) "bytes per transaction" 100.
    (Stats.bytes_per_transaction s);
  let z = Stats.create () in
  Alcotest.(check (float 0.)) "no traffic" 0. (Stats.l2_hit_rate z);
  Alcotest.(check (float 0.)) "no transactions" 0.
    (Stats.bytes_per_transaction z);
  let txt = Format.asprintf "%a" Stats.pp s in
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) ("pp prints " ^ name) true
        (Astring_like.contains txt name))
    (Stats.to_assoc s);
  Alcotest.(check bool) "pp prints hit rate" true
    (Astring_like.contains txt "l2 hit rate")

let tests =
  [
    Alcotest.test_case "per-kernel records sum to aggregate" `Quick
      test_records_sum_to_aggregate;
    Alcotest.test_case "JSON profile round-trips" `Quick test_json_roundtrip;
    Alcotest.test_case "JSON escaping round-trips" `Quick test_jsonx_escaping;
    Alcotest.test_case "Chrome trace is well-formed" `Quick
      test_chrome_trace_well_formed;
    Alcotest.test_case "bound classification" `Quick test_bound_classification;
    Alcotest.test_case "search trace" `Quick test_search_trace;
    Alcotest.test_case "preset trace" `Quick test_preset_trace;
    Alcotest.test_case "check names missing buffers" `Quick
      test_check_missing_buffer;
    Alcotest.test_case "derived stats metrics" `Quick test_stats_derived;
  ]
