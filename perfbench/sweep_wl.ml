(* Workload `sweep`: mapping-space exploration (Fig 17 / `ppat sweep`)
   through Runner.sweep_mapped on a 2-domain pool at one simulation job.
   Each app's whole deduped population (about 12k candidates over the
   seven apps) takes too long for repeated rounds, so set-up keeps every
   k-th shape group (whole groups, so the sweep stages one representative
   per shape and replays the rest as it would over the full population)
   until an app has about [per_app] candidates, and cuts them into calls
   of about [per_call] candidates, again of whole groups. Sizes and calls
   are fixed, so every seed sweeps the same candidates; the seed orders
   each call's candidates, which decides the representative each shape
   stages, and perturbs the floating-point inputs by up to 1%. Set-up also
   runs the oracle once per app; every candidate of every round is checked
   against it and against its own first result. *)

module A = Ppat_apps
module R = Ppat_harness.Runner

(* fixed sizes: the population swept is the input, and the seed orders it *)
let apps : (string * (tiny:bool -> A.App.t)) list =
  [
    ("sum_rows", fun ~tiny -> A.Sum_rows_cols.sum_rows ~r:(if tiny then 32 else 256) ~c:64 ());
    ("sum_cols", fun ~tiny -> A.Sum_rows_cols.sum_cols ~r:(if tiny then 32 else 256) ~c:64 ());
    ("hotspot", fun ~tiny -> A.Hotspot.app ~n:(if tiny then 16 else 48) ~steps:1 A.Hotspot.R);
    ("qpscd", fun ~tiny -> A.Qpscd.app ~samples:(if tiny then 16 else 64) ~dim:64 ());
    ("gemm", fun ~tiny -> A.Gemm.app ~m:(if tiny then 8 else 16) ~n:16 ~k:8 ());
    ("msm_cluster", fun ~tiny -> A.Msm_cluster.app ~frames:(if tiny then 16 else 32) ~centers:8 ~dims:8 ());
    ("mandelbrot", fun ~tiny -> A.Mandelbrot.app ~h:16 ~w:(if tiny then 32 else 256) ~max_iter:8 A.Mandelbrot.R);
  ]

let jobs = 2
let per_app = 128
let per_call = 32

type call = {
  cands : Ppat_core.Mapping.t array;
  digests : string option array;  (* each candidate's first result *)
}

type app_space = {
  name : string;
  app : A.App.t;
  data : Ppat_ir.Host.data;
  base : (int * Ppat_core.Mapping.t) list;
  target_pid : int;
  expected : Ppat_ir.Host.data;  (* the oracle's outputs *)
  calls : call list;
}

(* the candidates' shape groups, in enumeration order; candidates that do
   not lower are left out *)
let shape_groups ~opts (app : A.App.t) (target : Ppat_ir.Pat.nested) cands =
  let ap = R.analysis_params app.prog app.params in
  let groups = Hashtbl.create 64 and order = ref [] in
  Trace.span "codegen.lower" (fun () ->
      Array.iteri
        (fun i m ->
          match Ppat_codegen.Lower.lower Util.dev ~opts ~params:ap app.prog target m with
          | exception (Ppat_codegen.Lower.Unsupported _ | Failure _) -> ()
          | l ->
            let k = Ppat_codegen.Lower.shape_key l in
            if not (Hashtbl.mem groups k) then order := k :: !order;
            Hashtbl.replace groups k (cands.(i) :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
        cands);
  List.rev_map (fun k -> Array.of_list (List.rev (Hashtbl.find groups k))) !order

(* every k-th group up to [want] candidates, cut into calls of about
   [size] candidates; the seed orders each call's candidates *)
let plan_calls rng ~want ~size groups =
  let total = List.fold_left (fun n g -> n + Array.length g) 0 groups in
  let stride = max 1 (total / want) in
  let rec take n = function
    | g :: rest when n < want -> g :: take (n + Array.length g) rest
    | _ -> []
  in
  let kept = take 0 (List.filteri (fun i _ -> i mod stride = 0) groups) in
  let call groups =
    let cands = Array.concat (List.rev groups) in
    Util.shuffle rng cands;
    { cands; digests = Array.make (Array.length cands) None }
  in
  let rec cut acc cur n = function
    | [] -> List.rev (if cur = [] then acc else call cur :: acc)
    | g :: rest ->
      let n = n + Array.length g in
      if n >= size then cut (call (g :: cur) :: acc) [] 0 rest else cut acc (g :: cur) n rest
  in
  cut [] [] 0 kept

let setup ~seed ~tiny acc =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let opts = Ppat_codegen.Lower.effective_options () in
  let want, size = if tiny then (12, 6) else (per_app, per_call) in
  let spaces =
    List.map
      (fun (name, mk) ->
        let app, data =
          Trace.span "apps.gen" (fun () ->
              let app = mk ~tiny in
              (app, Util.perturb rng (A.App.input_data app)))
        in
        let base, (target_pid, target), all =
          Util.sweep_space
            ~on_collect:(Trace.span "core.collect")
            ~on_search:(Trace.span "core.search")
            app
        in
        let calls = plan_calls rng ~want ~size (shape_groups ~opts app target all) in
        let cpu = Acc.oracle acc ~params:app.params app.prog data in
        { name; app; data; base; target_pid; expected = cpu.R.cpu_data; calls })
      apps
  in
  (* the warm-up round's results are the deterministic reference set *)
  let det_stats = Ppat_gpu.Stats.create () and det_secs = ref [] and recording = ref false in
  let sweep acc ~traced sp call =
    let app = sp.app in
    let (results, stats), (), wall =
      Trace.span_parts "harness.sweep"
        (fun () ->
          R.sweep_mapped ~engine:Ppat_kernel.Interp.Compiled ~sim_jobs:1 ~jobs ~opts
            ~params:app.params Util.dev app.prog ~target_pid:sp.target_pid ~base:sp.base call.cands
            sp.data)
        (fun (results, stats) ->
          (* the pool's busy time, spread over its domains *)
          let sim_busy =
            Array.fold_left
              (fun acc (c : R.sweep_candidate) ->
                match c.sc_result with
                | Ok r ->
                  List.fold_left
                    (fun a (k : Ppat_profile.Record.kernel) -> a +. k.sim_wall_seconds)
                    acc r.profile
                | Error _ -> acc)
              0. results
          in
          ( (),
            [
              ("kernel.stage", stats.R.sw_stage_seconds /. float jobs);
              ("kernel.simulate", sim_busy /. float jobs);
            ] ))
    in
    Acc.call acc ~app:sp.name wall;
    if traced then begin
      acc.Acc.shapes <- acc.Acc.shapes + stats.R.sw_shapes;
      acc.Acc.shape_cands <- acc.Acc.shape_cands + stats.R.sw_candidates
    end;
    let insts = ref 0. in
    Array.iteri
      (fun i (c : R.sweep_candidate) ->
        Acc.attempt acc sp.name (fun () ->
            match (c.sc_result, c.sc_digest) with
            | Error e, _ -> Acc.fail acc "%s candidate %d: %s" sp.name i e
            | Ok _, None -> Acc.fail acc "%s candidate %d: no digest" sp.name i
            | Ok r, Some d -> (
              insts := !insts +. r.stats.warp_insts;
              if !recording then begin
                Ppat_gpu.Stats.add det_stats r.stats;
                det_secs := r.seconds :: !det_secs
              end;
              Acc.check acc ~what:(Printf.sprintf "%s candidate %d" sp.name i) app
                ~expected:sp.expected ~actual:r.data;
              match call.digests.(i) with
              | None -> call.digests.(i) <- Some d
              | Some d0 when d0 <> d ->
                Acc.fail acc "%s candidate %d: result drifted between rounds" sp.name i
              | Some _ -> ())))
      results;
    Acc.gpu acc ~wall ~warp_insts:!insts;
    Array.length call.cands
  in
  let round acc ~traced =
    List.fold_left
      (fun n sp ->
        List.fold_left (fun n call -> n + Trace.op (fun () -> sweep acc ~traced sp call)) n sp.calls)
      0 spaces
  in
  let warmup acc ~traced =
    recording := true;
    ignore (round acc ~traced);
    recording := false
  in
  { Instance.warmup; round; deterministic = (fun () -> (det_stats, !det_secs)) }
