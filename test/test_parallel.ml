(* Differential testing of intra-launch parallel simulation: a launch
   partitioned across N worker domains must produce bit-identical
   statistics — the L2 hit split included — and bit-identical output
   buffers, at any job count, on every bench app, with no quiet fallback
   to serial. Random kernels additionally pin down determinism: repeated
   parallel runs at a fixed job count must agree with themselves and with
   the serial run. Also covers the shared worker pool and the
   captured-formatter helper it exports. *)
module P = Ppat_parallel
module Interp = Ppat_kernel.Interp
module Kir = Ppat_kernel.Kir
module Stats = Ppat_gpu.Stats
module Q = QCheck2

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- worker pool --- *)

let test_pool_run () =
  let r = P.pool_run ~jobs:4 100 (fun i -> i * i) in
  Alcotest.(check int) "length" 100 (Array.length r);
  Array.iteri (fun i x -> Alcotest.(check int) "result" (i * i) x) r;
  (* reentrant: a task may itself fan out without deadlocking the pool *)
  let nested =
    P.pool_run ~jobs:2 4 (fun i ->
        Array.fold_left ( + ) 0 (P.pool_run ~jobs:2 4 (fun j -> (10 * i) + j)))
  in
  Array.iteri
    (fun i x -> Alcotest.(check int) "nested" ((40 * i) + 6) x)
    nested;
  (* a nested call may ask for a WIDER pool than the one running it; the
     pool must grow in place — the old teardown-and-recreate joined a
     worker from inside its own task and deadlocked *)
  let widened =
    P.pool_run ~jobs:2 4 (fun i ->
        Array.fold_left ( + ) 0 (P.pool_run ~jobs:12 6 (fun j -> (10 * i) + j)))
  in
  Array.iteri
    (fun i x -> Alcotest.(check int) "nested widening" ((60 * i) + 15) x)
    widened

let test_with_captured () =
  (* two domains printing concurrently: each capture holds exactly its own
     output, never a byte of the other's — std_formatter is domain-local *)
  let chunks = 200 in
  let out =
    P.pool_run ~jobs:2 2 (fun w ->
        P.with_captured (fun () ->
            for i = 1 to chunks do
              Format.printf "[%d:%d]" w i
            done))
  in
  Array.iteri
    (fun w s ->
      let expect =
        String.concat ""
          (List.init chunks (fun i -> Printf.sprintf "[%d:%d]" w (i + 1)))
      in
      Alcotest.(check string) (Printf.sprintf "capture %d" w) expect s)
    out

(* --- every bench app, serial vs parallel, exact agreement --- *)

let run_app ~sim_jobs (app : Ppat_apps.App.t) strat opts =
  let data = Ppat_apps.App.input_data app in
  Ppat_harness.Runner.run_gpu ~sim_jobs ?opts
    ~params:app.Ppat_apps.App.params Test_engine.dev app.Ppat_apps.App.prog
    strat data

let test_apps_parallel () =
  List.iter
    (fun (name, app, strat, opts) ->
      let serial = run_app ~sim_jobs:1 app strat opts in
      List.iter
        (fun jobs ->
          let before = Test_engine.metric "engine.parallel_fallbacks" in
          let par = run_app ~sim_jobs:jobs app strat opts in
          let tag = Printf.sprintf "%s @ %d jobs" name jobs in
          (* the bench kernels must actually run in parallel, not quietly
             serialise through the atomics gate *)
          Alcotest.(check (float 0.))
            (tag ^ ": no serial fallback")
            0.
            (Test_engine.metric "engine.parallel_fallbacks" -. before);
          Alcotest.(check bool)
            (tag ^ ": aggregate stats bit-identical")
            true
            (Stats.equal serial.Ppat_harness.Runner.stats par.stats);
          List.iter2
            (fun (a : Ppat_profile.Record.kernel)
                 (b : Ppat_profile.Record.kernel) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: launch %d (%s) stats bit-identical" tag
                   a.index a.kname)
                true
                (Stats.equal a.stats b.stats))
            serial.profile par.profile;
          Alcotest.(check bool)
            (tag ^ ": output buffers bit-identical")
            true
            (Test_engine.data_equal serial.data par.data))
        (* even, the tier-1 gate's count, and an odd count that does not
           divide the block counts *)
        [ 2; 3; 4 ])
    (Test_engine.suite ())

(* --- random kernels: serial agreement and parallel determinism ---

   Buffers are excluded here on purpose: a random kernel may race distinct
   blocks' stores on one element, where only statistics are deterministic.
   Kernels that draw a global atomic exercise the serial-fallback gate and
   must agree trivially. *)

let run_stats jobs k =
  let mem = Test_engine.fresh_mem () in
  let l =
    { Kir.kernel = k; grid = (4, 1, 1); block = (48, 1, 1); kparams = [] }
  in
  Interp.run ~engine:Interp.Compiled ~jobs Test_engine.dev mem l

let prop_parallel_kernels =
  Q.Test.make
    ~name:"random kernels: parallel stats serial-identical and deterministic"
    ~count:200 Test_engine.gen_kernel (fun k ->
      let s1 = run_stats 1 k in
      let s3 = run_stats 3 k in
      let s3' = run_stats 3 k in
      let s4 = run_stats 4 k in
      Stats.equal s1 s3 && Stats.equal s3 s3' && Stats.equal s1 s4)

let tests =
  [
    Alcotest.test_case "pool_run order and reentrancy" `Quick test_pool_run;
    Alcotest.test_case "with_captured does not interleave across domains"
      `Quick test_with_captured;
    Alcotest.test_case "bench apps serial vs parallel" `Slow
      test_apps_parallel;
    to_alcotest prop_parallel_kernels;
  ]
