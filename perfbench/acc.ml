(* What one phase of a run measured. Workloads record into it; the run
   loop in benchmark.ml turns it into metrics. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable calls_ms : float list;  (* latency of each timed blocking call *)
  per_app : (string, float list) Hashtbl.t;  (* the same, by app *)
  mutable round_ms : float list;  (* the same, in the current round *)
  mutable rounds : (int * float) list;  (* (items, wall seconds) per round *)
  mutable round_p99_ms : float list;  (* each round's p99 call latency *)
  mutable gpu_wall : float;  (* wall of the GPU-side calls *)
  mutable warp_insts : float;  (* simulated by those calls *)
  (* counted only while tracing *)
  mutable oracle_ops : float;
  mutable oracle_words : float;
  mutable walker_fallbacks : int;
  mutable shapes : int;
  mutable shape_cands : int;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    calls_ms = [];
    per_app = Hashtbl.create 32;
    round_ms = [];
    rounds = [];
    round_p99_ms = [];
    gpu_wall = 0.;
    warp_insts = 0.;
    oracle_ops = 0.;
    oracle_words = 0.;
    walker_fallbacks = 0;
    shapes = 0;
    shape_cands = 0;
  }

let reported = ref 0

let fail acc fmt =
  Printf.ksprintf
    (fun msg ->
      acc.failed <- acc.failed + 1;
      incr reported;
      if !reported <= 20 then prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

(* one attempted operation; an exception counts as its failure *)
let attempt acc what f =
  acc.attempted <- acc.attempted + 1;
  match f () with
  | () -> ()
  | exception (Out_of_memory | Stack_overflow as e) -> raise e
  | exception e -> fail acc "%s: %s" what (Printexc.to_string e)

let call acc ~app seconds =
  let ms = seconds *. 1000. in
  acc.calls_ms <- ms :: acc.calls_ms;
  acc.round_ms <- ms :: acc.round_ms;
  Hashtbl.replace acc.per_app app
    (ms :: Option.value ~default:[] (Hashtbl.find_opt acc.per_app app))

let gpu acc ~wall ~warp_insts =
  acc.gpu_wall <- acc.gpu_wall +. wall;
  acc.warp_insts <- acc.warp_insts +. warp_insts

(* the CPU oracle, timed as its own layer when tracing *)
let oracle acc ~params prog data =
  Trace.span "cpu.oracle" (fun () ->
      if not !Trace.enabled then Ppat_harness.Runner.run_cpu ~params prog data
      else begin
        let w0 = Util.alloc_words () in
        let c = Ppat_harness.Runner.run_cpu ~params prog data in
        acc.oracle_words <- acc.oracle_words +. (Util.alloc_words () -. w0);
        acc.oracle_ops <- acc.oracle_ops +. c.Ppat_harness.Runner.counts.ops;
        c
      end)

(* GPU outputs against the oracle, with the tolerance `ppat run` uses *)
let check acc ~what (app : Ppat_apps.App.t) ~expected ~actual =
  match
    Trace.span "harness.check" (fun () ->
        Ppat_harness.Runner.check ~eps:(Float.max app.eps 1e-5) ~unordered:app.unordered
          app.prog ~expected ~actual)
  with
  | Ok () -> ()
  | Error e -> fail acc "%s: oracle mismatch: %s" what e
