(* The traced suite's own walk of the paper pipeline, one public call per
   layer: Collect.collect, Strategy.decide, Lower.lower, Compile.compile,
   then Compile.execute, or the reference engine when compile declines the
   launch. It mirrors what Runner.run_gpu does with the compiled engine at
   one simulation job, so its statistics and output buffers must equal
   run_gpu's bit for bit; the suite workload checks that on every app. *)

module P = Ppat_ir.Pat
module Host = Ppat_ir.Host
module Memory = Ppat_gpu.Memory
module Stats = Ppat_gpu.Stats
module Kir = Ppat_kernel.Kir

type result = {
  stats : Stats.t;
  data : Host.data;
  seconds : float;  (* modelled kernel time *)
  fallbacks : int;  (* launches the compiled engine declined *)
}

let decide ~model (app : Ppat_apps.App.t) =
  let ap = Ppat_harness.Runner.analysis_params app.prog app.params in
  let decisions = ref [] in
  let rec step = function
    | P.Launch n ->
      if not (List.mem_assoc n.pat.P.pid !decisions) then begin
        let c =
          Trace.span "core.collect" (fun () ->
              Ppat_core.Collect.collect ~params:ap ?bind:n.P.bind Util.dev app.prog n.P.pat)
        in
        let d =
          Trace.span "core.search" (fun () ->
              Ppat_core.Strategy.decide ~model Util.dev c Ppat_core.Strategy.Auto)
        in
        decisions := (n.pat.P.pid, d.Ppat_core.Strategy.mapping) :: !decisions
      end
    | P.Host_loop { body; _ } | P.While_flag { body; _ } -> List.iter step body
    | P.Swap _ -> ()
  in
  List.iter step app.prog.P.steps;
  !decisions

let execute ~opts (app : Ppat_apps.App.t) decisions data =
  let dev = Util.dev and prog = app.prog in
  let params = Host.params_of prog app.params in
  let mem = Memory.create () in
  List.iter (fun (name, buf) -> ignore (Memory.load mem name buf)) (Host.alloc_all prog params data);
  let agg = Stats.create () in
  let seconds = ref 0. and fallbacks = ref 0 in
  let launch (l : Kir.launch) =
    let s =
      match Trace.span "kernel.compile" (fun () -> Ppat_kernel.Compile.compile dev mem l) with
      | Ok c -> Trace.span "kernel.simulate" (fun () -> Ppat_kernel.Compile.execute ~jobs:1 dev c)
      | Error _ ->
        incr fallbacks;
        Trace.span "kernel.simulate" (fun () ->
            Ppat_kernel.Interp.run ~engine:Ppat_kernel.Interp.Reference ~jobs:1 dev mem l)
    in
    Stats.add agg s;
    seconds := !seconds +. (Ppat_gpu.Timing.kernel_estimate dev (Kir.geometry l) s).seconds
  in
  let rec step cur_params = function
    | P.Launch n ->
      let lowered =
        Trace.span "codegen.lower" (fun () ->
            Ppat_codegen.Lower.lower dev ~opts ~params:cur_params prog n
              (List.assoc n.pat.P.pid decisions))
      in
      List.iter
        (fun (t : Ppat_codegen.Lower.temp) ->
          ignore
            (match t.telem with
             | Ppat_ir.Ty.F64 -> Memory.alloc_f mem t.tname t.telems
             | Ppat_ir.Ty.I32 | Ppat_ir.Ty.Bool -> Memory.alloc_i mem t.tname t.telems))
        lowered.temps;
      List.iter launch lowered.launches
    | P.Host_loop { var; count; body } ->
      for i = 0 to Ppat_ir.Ty.extent_value cur_params count - 1 do
        List.iter (step ((var, i) :: cur_params)) body
      done
    | P.Swap (a, b) -> Memory.swap mem a b
    | P.While_flag { flag; max_iter; body } ->
      let flag_set () =
        match (Memory.find mem flag).data with
        | Host.I a -> a.(0) <> 0
        | Host.F a -> a.(0) <> 0.
      in
      let continue_ = ref true and iters = ref 0 in
      while !continue_ && !iters < max_iter do
        (match (Memory.find mem flag).data with
         | Host.I a -> a.(0) <- 0
         | Host.F a -> a.(0) <- 0.);
        List.iter (step cur_params) body;
        continue_ := flag_set ();
        incr iters
      done
  in
  List.iter (step params) prog.P.steps;
  {
    stats = agg;
    data = List.map (fun (b : P.buffer) -> (b.bname, Memory.to_host mem b.bname)) prog.P.buffers;
    seconds = !seconds;
    fallbacks = !fallbacks;
  }

let run ~model ~opts app data =
  Trace.span "harness.walk" (fun () -> execute ~opts app (decide ~model app) data)

(* what bit-identity is judged on: every counter and every output word *)
let digest stats (data : Host.data) =
  Digest.to_hex (Digest.string (Marshal.to_string (Stats.to_assoc stats, data) []))
