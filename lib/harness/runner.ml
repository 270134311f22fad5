open Ppat_ir
module Strategy = Ppat_core.Strategy
module Collect = Ppat_core.Collect
module Mapping = Ppat_core.Mapping
module Lower = Ppat_codegen.Lower
module Interp = Ppat_kernel.Interp
module Device = Ppat_gpu.Device
module Memory = Ppat_gpu.Memory
module Stats = Ppat_gpu.Stats
module Timing = Ppat_gpu.Timing

module Record = Ppat_profile.Record

type gpu_result = {
  seconds : float;
  kernels : int;
  stats : Stats.t;
  data : Host.data;
  decisions : (string * Strategy.decision) list;
  notes : string list;
  profile : Record.kernel list;
}

type cpu_result = {
  cpu_seconds : float;
  cpu_data : Host.data;
  counts : Ppat_cpu.Interp_ref.counts;
}

let analysis_params (prog : Pat.prog) params =
  let params = Host.params_of prog params in
  let extra = ref [] in
  let rec step = function
    | Pat.Launch _ | Pat.Swap _ -> ()
    | Pat.Host_loop { var; count; body } ->
      let n = Ty.extent_value params count in
      extra := (var, max 0 (n / 2)) :: !extra;
      List.iter step body
    | Pat.While_flag { body; _ } -> List.iter step body
  in
  List.iter step prog.steps;
  !extra @ params

(* one mapping decision per top-level pattern of the program, priced
   for the run's own lowering options; [memo] short-circuits the
   constraint collection and search through the canonical-digest cache *)
let decide_all ?model ?memo ?(opts = Lower.effective_options ()) dev
    (prog : Pat.prog) params strategy =
  let shuffle = opts.Lower.shuffle in
  let ap = analysis_params prog params in
  (* decided in launch order, listed newest first *)
  List.fold_left
    (fun decisions (n : Pat.nested) ->
      let d =
        Ppat_metrics.Metrics.span ~cat:"search" "mapping search" (fun () ->
            match memo with
            | Some m ->
              Ppat_core.Search_memo.decide m ?model ~shuffle ~params:ap
                ?bind:n.bind dev prog n.pat strategy
            | None ->
              let c = Collect.collect ~params:ap ?bind:n.bind dev prog n.pat in
              Strategy.decide ?model ~shuffle dev c strategy)
      in
      (n.pat.Pat.pid, d) :: decisions)
    [] (Pat.launches prog)

(* ----- the one execution walk: every run stages its launches (lowering
   plus closure compilation) and executes them; a cold run is a staging
   whose plan is dropped, a replay re-runs a kept plan against fresh data
   paying simulation cost only ----- *)

module Staged = Ppat_kernel.Staged
module Site = Ppat_kernel.Site
module Kir = Ppat_kernel.Kir

type launch_meta = {
  m_label : string;
  m_li : int;  (* launch index within its pattern (0 = main kernel) *)
  m_mapping : Mapping.t;
  m_via : string;
  m_predicted : Ppat_core.Predict.t option;
}

type plan = {
  p_prog : Pat.prog;
  p_params : (string * int) list;  (* resolved over defaults *)
  p_staged : launch_meta Staged.plan;
  p_decisions : (string * Strategy.decision) list;  (* label-keyed *)
}

type staged_run = {
  st_result : gpu_result;
  st_plan : plan option;
  st_unstageable : string option;
  st_stage_seconds : float;
}

(* per-launch execution + record building shared by staging and replay;
   mutates the accumulator refs the caller owns *)
let run_and_record ~jobs ~attr ~agg ~total_time ~kernels ~records dev mem
    (sl : launch_meta Staged.slaunch) =
  (* per-site attribution: the canonical annotation pass sizes the
     matrix; both engines fill it bit-identically *)
  let site_attr =
    if not attr then None
    else
      let infos, _ = Site.annotate sl.Staged.launch.Kir.kernel in
      Some (infos, Ppat_gpu.Site_stats.create (Array.length infos))
  in
  (* real wall time, not CPU time: with [sim_jobs > 1] the interesting
     number is elapsed time across all domains *)
  let wall0 = Unix.gettimeofday () in
  let s =
    Staged.run_slaunch ~jobs ?attr:(Option.map snd site_attr) dev mem sl
  in
  let wall = Unix.gettimeofday () -. wall0 in
  Stats.add agg s;
  let b = Timing.kernel_estimate dev (Kir.geometry sl.Staged.launch) s in
  total_time := !total_time +. b.Timing.seconds;
  let meta = sl.Staged.meta in
  records :=
    {
      Record.index = !kernels;
      label = meta.m_label;
      kname = sl.Staged.launch.Kir.kernel.Kir.kname;
      grid = sl.Staged.launch.Kir.grid;
      block = sl.Staged.launch.Kir.block;
      mapping = meta.m_mapping;
      via = meta.m_via;
      stats = Stats.copy s;
      breakdown = b;
      sim_wall_seconds = wall;
      (* the decision's prediction models the pattern's main kernel;
         combiner launches have no prediction of their own *)
      predicted = (if meta.m_li = 0 then meta.m_predicted else None);
      site_attr;
    }
    :: !records;
  incr kernels;
  s

let label_of_pid prog pid =
  let found = ref "" in
  Pat.iter_patterns
    (fun lvl p -> if lvl = 0 && p.Pat.pid = pid then found := p.Pat.label)
    prog;
  !found

let stage_gen ?engine ?sim_jobs ?(attr = false)
    ?(opts = Lower.effective_options ()) ?(params = []) dev prog ~mapping_of
    ~via_of ~predicted_of ~labelled data =
  (match Pat.validate prog with
   | Ok () -> ()
   | Error e -> failwith ("invalid program: " ^ e));
  let engine =
    match engine with Some e -> e | None -> Interp.default_engine ()
  in
  let jobs =
    match sim_jobs with Some j -> j | None -> Interp.default_jobs ()
  in
  let params = Host.params_of prog params in
  let mem = Memory.create () in
  let initial =
    List.map
      (fun (name, buf) -> (name, Memory.load mem name buf))
      (Host.alloc_all prog params data)
  in
  let total_time = ref 0. in
  let kernels = ref 0 in
  let agg = Stats.create () in
  let notes = ref [] in
  let records = ref [] in
  let stage_seconds = ref 0. in
  let unstageable = ref None in
  let run sl =
    run_and_record ~jobs ~attr ~agg ~total_time ~kernels ~records dev mem sl
  in
  let on_notes ns = notes := ns @ !notes in
  (* stage one host step: execute it (this run doubles as the cold run)
     and return the ops that reproduce it *)
  let rec step ~in_while cur_params (s : Pat.step) :
      launch_meta Staged.op list =
    match s with
    | Pat.Launch n ->
      let pid = n.pat.Pat.pid in
      let mapping = mapping_of pid in
      let t0 = Unix.gettimeofday () in
      let lowered = Lower.lower dev ~opts ~params:cur_params prog n mapping in
      let binds =
        List.map
          (fun (t : Lower.temp) ->
            let e =
              match t.telem with
              | Ty.F64 -> Memory.alloc_f mem t.tname t.telems
              | Ty.I32 | Ty.Bool -> Memory.alloc_i mem t.tname t.telems
            in
            (t.tname, e))
          lowered.temps
      in
      if in_while && binds <> [] && !unstageable = None then
        unstageable :=
          Some
            (Printf.sprintf
               "launch %S allocates temps inside a flag loop (a cold run \
                re-allocates per iteration)"
               n.pat.Pat.label);
      let slaunches =
        List.mapi
          (fun li (l : Kir.launch) ->
            let meta =
              {
                m_label = n.pat.Pat.label;
                m_li = li;
                m_mapping = mapping;
                m_via = via_of pid;
                m_predicted = predicted_of pid;
              }
            in
            match engine with
            | Interp.Reference -> Staged.reference_slaunch l ~meta
            | Interp.Compiled -> Staged.stage_launch dev mem l ~meta)
          lowered.launches
      in
      stage_seconds := !stage_seconds +. (Unix.gettimeofday () -. t0);
      List.iter (fun sl -> ignore (run sl)) slaunches;
      on_notes lowered.notes;
      [ Staged.Exec { binds; launches = slaunches; notes = lowered.notes } ]
    | Pat.Host_loop { var; count; body } ->
      let n = Ty.extent_value cur_params count in
      let ops = ref [] in
      for i = 0 to n - 1 do
        ops :=
          List.rev_append
            (List.concat_map (step ~in_while ((var, i) :: cur_params)) body)
            !ops
      done;
      List.rev !ops
    | Pat.Swap (a, b) ->
      if in_while && !unstageable = None then
        unstageable := Some "buffer swap inside a flag loop";
      Memory.swap mem a b;
      [ Staged.Swap (a, b) ]
    | Pat.While_flag { flag; max_iter; body } ->
      (* stage and execute the first iteration; later iterations replay
         the staged body through Staged's op walk — unless it turned out
         unstageable, in which case every iteration re-stages, which is
         exactly what a cold run does (fresh temps, fresh closures) *)
      let body_ops = ref None in
      let stage_body () = List.concat_map (step ~in_while:true cur_params) body in
      Staged.flag_loop mem ~flag ~max_iter (fun () ->
          match !body_ops with
          | None -> body_ops := Some (stage_body ())
          | Some ops when !unstageable = None ->
            Staged.run_ops ~on_notes mem ~run ops
          | Some _ -> ignore (stage_body ()));
      [
        Staged.While
          { flag; max_iter; body = Option.value !body_ops ~default:[] };
      ]
  in
  let ops = List.concat_map (step ~in_while:false params) prog.Pat.steps in
  let out =
    List.map
      (fun (b : Pat.buffer) -> (b.bname, Memory.to_host mem b.bname))
      prog.Pat.buffers
  in
  let result =
    {
      seconds = !total_time;
      kernels = !kernels;
      stats = agg;
      data = out;
      decisions = labelled;
      notes = List.rev !notes;
      profile = List.rev !records;
    }
  in
  let plan =
    match !unstageable with
    | Some _ -> None
    | None ->
      Some
        {
          p_prog = prog;
          p_params = params;
          p_staged =
            {
              Staged.device = dev;
              mem;
              initial;
              ops;
              lock = Mutex.create ();
            };
          p_decisions = result.decisions;
        }
  in
  {
    st_result = result;
    st_plan = plan;
    st_unstageable = !unstageable;
    st_stage_seconds = !stage_seconds;
  }

let stage ?engine ?sim_jobs ?attr ?opts ?params dev prog ~decisions data =
  stage_gen ?engine ?sim_jobs ?attr ?opts ?params dev prog
    ~mapping_of:(fun pid -> (List.assoc pid decisions).Strategy.mapping)
    ~via_of:(fun pid ->
      match List.assoc_opt pid decisions with
      | Some d -> d.Strategy.via
      | None -> "")
    ~predicted_of:(fun pid ->
      match List.assoc_opt pid decisions with
      | Some d -> d.Strategy.predicted
      | None -> None)
    ~labelled:
      (List.map (fun (pid, d) -> (label_of_pid prog pid, d)) decisions)
    data

let run_gpu ?engine ?sim_jobs ?attr ?(opts = Lower.effective_options ())
    ?params ?model ?memo dev prog strategy data =
  let decisions =
    decide_all ?model ?memo ~opts dev prog
      (Option.value params ~default:[]) strategy
  in
  (stage ?engine ?sim_jobs ?attr ~opts ?params dev prog ~decisions data)
    .st_result

(* an explicit mapping per top-level pattern instead of search decisions:
   no decisions, no predictions, and [via] names the caller *)
let stage_explicit ~via ?engine ?sim_jobs ?attr ?opts ?params dev prog
    mapping_of data =
  stage_gen ?engine ?sim_jobs ?attr ?opts ?params dev prog ~mapping_of
    ~via_of:(fun _ -> via)
    ~predicted_of:(fun _ -> None)
    ~labelled:[] data

let run_gpu_mapped ?engine ?sim_jobs ?attr ?opts ?params dev prog mapping_of
    data =
  (stage_explicit ~via:"explicit mapping" ?engine ?sim_jobs ?attr ?opts
     ?params dev prog mapping_of data)
    .st_result

let replay ?sim_jobs ?(attr = false) (p : plan) data =
  let jobs =
    match sim_jobs with Some j -> j | None -> Interp.default_jobs ()
  in
  let dev = p.p_staged.Staged.device in
  let mem = p.p_staged.Staged.mem in
  let contents = Host.alloc_all p.p_prog p.p_params data in
  let total_time = ref 0. in
  let kernels = ref 0 in
  let agg = Stats.create () in
  let notes = ref [] in
  let records = ref [] in
  let run sl =
    run_and_record ~jobs ~attr ~agg ~total_time ~kernels ~records dev mem sl
  in
  match
    Staged.replay
      ~on_notes:(fun ns -> notes := ns @ !notes)
      p.p_staged ~contents ~run
  with
  | Error e -> Error e
  | Ok () ->
    let out =
      List.map
        (fun (b : Pat.buffer) -> (b.bname, Memory.to_host mem b.bname))
        p.p_prog.Pat.buffers
    in
    Ok
      {
        seconds = !total_time;
        kernels = !kernels;
        stats = agg;
        data = out;
        decisions = p.p_decisions;
        notes = List.rev !notes;
        profile = List.rev !records;
      }

let run_cpu ?(params = []) prog data =
  let cpu_data, counts = Ppat_cpu.Interp_ref.run ~params prog data in
  let cpu_seconds = Ppat_cpu.Cpu_cost.seconds Ppat_cpu.Cpu_cost.xeon_2x4 counts in
  { cpu_seconds; cpu_data; counts }

let input_bytes ?(params = []) (prog : Pat.prog) =
  let params = Host.params_of prog params in
  List.fold_left
    (fun acc (b : Pat.buffer) ->
      match b.bkind with
      | Pat.Input ->
        acc + (Host.buffer_elems params b * Ty.scalar_bytes b.elem)
      | Pat.Output | Pat.Temp -> acc)
    0 prog.buffers

let sort_buf = function
  | Host.F a ->
    let c = Array.copy a in
    Array.sort compare c;
    Host.F c
  | Host.I a ->
    let c = Array.copy a in
    Array.sort compare c;
    Host.I c

let check ?(eps = 1e-6) ?(unordered = []) ?only (prog : Pat.prog) ~expected
    ~actual =
  let errors = ref [] in
  let missing = ref [] in
  let selected (b : Pat.buffer) =
    match only with None -> true | Some names -> List.mem b.bname names
  in
  List.iter
    (fun (b : Pat.buffer) ->
      if selected b then begin
        (* inputs are compared too: iterative programs mutate them *)
        match
          (List.assoc_opt b.bname expected, List.assoc_opt b.bname actual)
        with
        | None, _ -> missing := (b.bname, "expected") :: !missing
        | _, None -> missing := (b.bname, "actual") :: !missing
        | Some e, Some a ->
          let e, a =
            if List.mem b.bname unordered then (sort_buf e, sort_buf a)
            else (e, a)
          in
          if not (Host.approx_equal ~eps e a) then
            errors := b.bname :: !errors
      end)
    prog.buffers;
  match (List.rev !missing, List.rev !errors) with
  | [], [] -> Ok ()
  | ms, bs ->
    let missing_msg =
      List.map
        (fun (name, side) ->
          Printf.sprintf "buffer %S missing from the %s outputs" name side)
        ms
    in
    let mismatch_msg =
      match bs with
      | [] -> []
      | bs ->
        [ Printf.sprintf "mismatched buffers: %s" (String.concat ", " bs) ]
    in
    Error (String.concat "; " (missing_msg @ mismatch_msg))

(* ----- mapping-space sweeps: every candidate is one cold run through
   the staging walk; shape keys are reported, not acted on ----- *)

module Sweep = Ppat_core.Sweep
module Cost_model = Ppat_core.Cost_model

let sweep_candidates_evaluated =
  Ppat_metrics.Metrics.counter "sweep.candidates_evaluated"

(* the deterministic fields of a result, in a fixed order; what may differ
   between evaluation paths (wall clock, provenance, attribution) is out *)
let result_digest (r : gpu_result) =
  let b = Enc.create () in
  let ints = List.iter (Enc.int b) and strings = List.iter (Enc.string b) in
  let stats s =
    List.iter (fun (n, v) -> Enc.string b n; Enc.float b v) (Stats.to_assoc s)
  in
  Enc.float b r.seconds;
  Enc.int b r.kernels;
  stats r.stats;
  Enc.data b r.data;
  Enc.int b (List.length r.profile);
  List.iter
    (fun (k : Record.kernel) ->
      let t = k.breakdown and (gx, gy, gz), (bx, by, bz) = (k.grid, k.block) in
      Enc.int b k.index;
      strings [ k.label; k.kname ];
      ints [ gx; gy; gz; bx; by; bz ];
      Enc.string b (Mapping.to_string k.mapping);
      stats k.stats;
      List.iter (Enc.float b)
        [ t.seconds; t.compute_cycles; t.bandwidth_cycles; t.latency_cycles;
          t.overhead_cycles ];
      ints [ t.resident_warps; t.active_sms ];
      Enc.string b (Timing.string_of_bound t.bound))
    r.profile;
  Enc.digest b

type sweep_candidate = {
  sc_mapping : Mapping.t;
  sc_shape : string option;
  sc_result : (gpu_result, string) result;
  sc_digest : string option;
  sc_target_seconds : float option;
  sc_stage_seconds : float;
}

type sweep_stats = {
  sw_candidates : int;
  sw_shapes : int;
  sw_failed : int;
  sw_stage_seconds : float;
  sw_wall_seconds : float;
}

let sweep_mapped ?engine ?sim_jobs ?(jobs = 1)
    ?(opts = Lower.effective_options ()) ?(params = []) dev prog ~target_pid
    ~base (cands : Mapping.t array) data =
  let t0 = Unix.gettimeofday () in
  (match Pat.validate prog with
   | Ok () -> ()
   | Error e -> failwith ("invalid program: " ^ e));
  let ap = analysis_params prog params in
  let target =
    match
      List.find_opt
        (fun (n : Pat.nested) -> n.pat.Pat.pid = target_pid)
        (Pat.launches prog)
    with
    | Some n -> n
    | None -> failwith (Printf.sprintf "sweep: no launch with pid %d" target_pid)
  in
  let target_label = target.Pat.pat.Pat.label in
  let n = Array.length cands in
  (* shape keys are computed at the analysis point (host-loop midpoints),
     exactly where the search evaluates candidates, so two mappings share
     a key iff they lower to the same kernel structure *)
  let shapes =
    Array.map
      (fun m ->
        match Lower.lower dev ~opts ~params:ap prog target m with
        | l -> Ok (Lower.shape_key l)
        | exception Lower.Unsupported e -> Error ("unsupported: " ^ e)
        | exception Failure e -> Error e)
      cands
  in
  let mapping_of_cand m pid =
    if pid = target_pid then m
    else
      match List.assoc_opt pid base with
      | Some bm -> bm
      | None ->
        failwith (Printf.sprintf "sweep: no base mapping for pattern %d" pid)
  in
  let eval i =
    Ppat_metrics.Metrics.incr sweep_candidates_evaluated;
    let failed shape e =
      {
        sc_mapping = cands.(i);
        sc_shape = shape;
        sc_result = Error e;
        sc_digest = None;
        sc_target_seconds = None;
        sc_stage_seconds = 0.;
      }
    in
    match shapes.(i) with
    | Error e -> failed None e
    | Ok shape -> (
      (* every candidate gets a fresh memory image: temp base addresses
         feed the sliced-L2 model, so sharing one would perturb hit
         counts *)
      match
        stage_explicit ~via:"sweep" ?engine ?sim_jobs ~opts ~params dev prog
          (mapping_of_cand cands.(i))
          data
      with
      | exception Lower.Unsupported e -> failed (Some shape) ("unsupported: " ^ e)
      | exception Failure e -> failed (Some shape) e
      | sr ->
        let r = sr.st_result in
        let target_seconds =
          List.fold_left
            (fun acc (k : Record.kernel) ->
              if String.equal k.Record.label target_label then
                acc +. k.Record.breakdown.Timing.seconds
              else acc)
            0. r.profile
        in
        {
          sc_mapping = cands.(i);
          sc_shape = Some shape;
          sc_result = Ok r;
          sc_digest = Some (result_digest r);
          sc_target_seconds = Some target_seconds;
          sc_stage_seconds = sr.st_stage_seconds;
        })
  in
  let results = Ppat_parallel.pool_run ~jobs n eval in
  let shape_count =
    List.length
      (Sweep.group_by
         ~key:(fun i -> Result.to_option shapes.(i))
         n)
  in
  ( results,
    {
      sw_candidates = n;
      sw_shapes = shape_count;
      sw_failed =
        Array.fold_left
          (fun acc c -> if Result.is_error c.sc_result then acc + 1 else acc)
          0 results;
      sw_stage_seconds =
        Array.fold_left (fun acc c -> acc +. c.sc_stage_seconds) 0. results;
      sw_wall_seconds = Unix.gettimeofday () -. t0;
    } )

type target_space = {
  ts_base : (int * Mapping.t) list;
  ts_target : Pat.nested;
  ts_collect : Collect.t;
  ts_candidates : Mapping.t array;
  ts_duplicates : int;
}

let target_space ?(params = []) dev (prog : Pat.prog) =
  let ap = analysis_params prog params in
  let pats =
    List.map
      (fun (n : Pat.nested) ->
        (n, Collect.collect ~params:ap ?bind:n.bind dev prog n.pat))
      (Pat.launches prog)
  in
  if pats = [] then invalid_arg (prog.pname ^ " has no launches");
  (* non-target patterns keep their soft-model auto mapping, so candidate
     mappings of the target are the only variable between simulations *)
  let base =
    List.map
      (fun ((n : Pat.nested), c) ->
        ( n.pat.Pat.pid,
          (Strategy.decide ~model:Cost_model.Soft dev c Strategy.Auto)
            .Strategy.mapping ))
      pats
  in
  (* the first pattern with the most hard-feasible mappings *)
  let (target, tc), cands =
    List.fold_left
      (fun ((_, best) as acc) (p, c) ->
        let ms =
          List.map fst
            (Ppat_core.Search.enumerate ~model:Cost_model.Soft dev c)
        in
        if List.length ms > List.length best then ((p, c), ms) else acc)
      (List.hd pats, []) pats
  in
  (* the search can reach one mapping through several enumeration moves;
     simulating it twice would double-count the sample *)
  let seen : (Mapping.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let fresh m = (not (Hashtbl.mem seen m)) && (Hashtbl.add seen m (); true) in
  let unique = List.filter fresh cands in
  {
    ts_base = base;
    ts_target = target;
    ts_collect = tc;
    ts_candidates = Array.of_list unique;
    ts_duplicates = List.length cands - List.length unique;
  }

(* ----- mapping-space report: how well each cost model's ranking of the
   target space agrees with the simulator (Fig 17, Section VI-G) ----- *)

type model_report = {
  mr_model : Cost_model.kind;
  mr_spearman : float;
  mr_regret : float;
  mr_selected : int;
  mr_selected_cycles : float option;
}

type mapspace = {
  ms_space : target_space;
  ms_sample : int array;
  ms_results : sweep_candidate array;
  ms_stats : sweep_stats;
  ms_seconds : (int * float) list;
  ms_models : model_report list;
  ms_predictor_spearman : float;
}

let mapspace ?engine ?sim_jobs ?jobs ?(opts = Lower.effective_options ())
    ?(params = []) ~top dev prog data =
  let ts = target_space ~params dev prog in
  let cands = ts.ts_candidates in
  let n = Array.length cands in
  if n = 0 then
    Error
      (Printf.sprintf "no hard-feasible candidate mappings for %s"
         ts.ts_target.pat.Pat.label)
  else begin
    let rankings =
      List.map
        (fun m ->
          (m, Cost_model.rank ~shuffle:opts.shuffle m dev ts.ts_collect cands))
        Cost_model.all
    in
    let sample =
      Array.of_list
        (Sweep.sample ~top (List.map (fun (_, (_, order)) -> order) rankings) n)
    in
    let results, stats =
      sweep_mapped ?engine ?sim_jobs ?jobs ~opts ~params dev prog
        ~target_pid:ts.ts_target.pat.Pat.pid ~base:ts.ts_base
        (Array.map (fun i -> cands.(i)) sample)
        data
    in
    (* ground truth: simulated seconds of the target pattern's launches,
       by population index, ascending *)
    let seconds =
      List.concat
        (List.mapi
           (fun k c ->
             match (c.sc_result, c.sc_target_seconds) with
             | Ok _, Some s -> [ (sample.(k), s) ]
             | _ -> [])
           (Array.to_list results))
    in
    let simulated = List.length seconds in
    if simulated < 2 then
      Error
        (Printf.sprintf
           "only %d candidate(s) could be simulated; nothing to compare"
           simulated)
    else begin
      let secs = Array.of_list (List.map snd seconds) in
      let best = Array.fold_left Float.min infinity secs in
      let over_sample f =
        Array.of_list (List.map (fun (i, _) -> f i) seconds)
      in
      let cycles (e : Cost_model.eval) =
        Option.map (fun (p : Ppat_core.Predict.t) -> p.cycles) e.predicted
      in
      let report (model, ((evals : Cost_model.eval array), order)) =
        let pos = Array.make n 0 in
        Array.iteri (fun rank i -> pos.(i) <- rank) order;
        let top1 = order.(0) in
        {
          mr_model = model;
          mr_spearman =
            Cost_model.spearman
              (over_sample (fun i -> float_of_int pos.(i)))
              secs;
          mr_regret =
            Sweep.regret ~best
              (Option.value ~default:nan (List.assoc_opt top1 seconds));
          mr_selected = top1;
          mr_selected_cycles = cycles evals.(top1);
        }
      in
      (* the static predictor's cycles against simulated seconds,
         independent of any ranking tie-breaks *)
      let a_evals, _ = List.assoc Cost_model.Analytical rankings in
      Ok
        {
          ms_space = ts;
          ms_sample = sample;
          ms_results = results;
          ms_stats = stats;
          ms_seconds = seconds;
          ms_models = List.map report rankings;
          ms_predictor_spearman =
            Cost_model.spearman
              (over_sample (fun i ->
                   Option.value ~default:nan (cycles a_evals.(i))))
              secs;
        }
    end
  end
