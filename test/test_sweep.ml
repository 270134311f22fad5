(* The mapping-space evaluator: per-candidate bit-identity against the
   one-at-a-time path (both engines, serial and parallel simulation and
   pool), its evaluation counts, the pure Sweep helpers (shape grouping,
   the mapping-space sample rule, regret), the Jsonx non-finite guard,
   the fail-fast PPAT_* environment parsing and the strategy / engine
   value parsers the CLI and the service share. The mapping-space
   report's pinned per-model table is in test_mapspace.ml. *)
open Ppat_ir
module Runner = Ppat_harness.Runner
module Sweep = Ppat_core.Sweep
module Cost_model = Ppat_core.Cost_model
module M = Ppat_core.Mapping
module Q = QCheck2

let dev = Ppat_gpu.Device.k20c

(* the sweep setup every harness test shares: the target pattern's pid
   and the deduped hard-feasible candidates *)
let space (app : Ppat_apps.App.t) =
  let ts = Runner.target_space ~params:app.params dev app.prog in
  (ts.ts_target.pat.Pat.pid, ts.ts_candidates)

let take k a = Array.sub a 0 (min k (Array.length a))

let counter = Ppat_metrics.Metrics.counter
let cval name = Ppat_metrics.Metrics.value (counter name)

(* ----- bit-identity: every candidate the sweep evaluates on the pool
   digests identically to a one-at-a-time run of the same mapping, under
   both engines and with serial and parallel simulation ----- *)

let test_bit_identity () =
  let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:64 ~c:32 () in
  let data = Ppat_apps.App.input_data app in
  let tpid, cands = space app in
  let cands = take 24 cands in
  let reference = ref None in
  List.iter
    (fun (engine, sim_jobs) ->
      let results, stats =
        Runner.sweep_mapped ~engine ~sim_jobs ~jobs:2 ~params:app.params dev
          app.prog ~target_pid:tpid ~base:[] cands data
      in
      Alcotest.(check int) "no failures" 0 stats.Runner.sw_failed;
      let digests =
        Array.map
          (fun (c : Runner.sweep_candidate) ->
            Option.get c.sc_digest)
          results
      in
      Array.iteri
        (fun i m ->
          let one =
            Runner.run_gpu_mapped ~engine ~sim_jobs ~params:app.params dev
              app.prog
              (fun pid -> if pid = tpid then m else assert false)
              data
          in
          Alcotest.(check string)
            (Printf.sprintf "candidate %d sweep = one-at-a-time" i)
            (Runner.result_digest one) digests.(i))
        cands;
      (* digests are also invariant across engine and sim_jobs *)
      match !reference with
      | None -> reference := Some digests
      | Some d ->
        Array.iteri
          (fun i x ->
            Alcotest.(check string)
              (Printf.sprintf "candidate %d engine/jobs-invariant" i)
              d.(i) x)
          digests)
    Ppat_kernel.Interp.
      [ (Compiled, 1); (Compiled, 4); (Reference, 1); (Reference, 4) ]

(* ~200 random kernels: random sizes, random candidate pairs; the batched
   evaluation of the pair must digest identically to evaluating each
   candidate alone *)
let prop_random_bit_identity =
  Q.Test.make ~name:"random sizes: sweep digests = one-at-a-time" ~count:200
    Q.Gen.(triple (int_range 3 40) (int_range 3 40) (int_range 0 10_000))
    (fun (r, c, pick) ->
      let app = Ppat_apps.Sum_rows_cols.sum_rows ~r ~c () in
      let data = Ppat_apps.App.input_data app in
      let tpid, cands = space app in
      let n = Array.length cands in
      let pair = [| cands.(pick mod n); cands.((pick / n) mod n) |] in
      let results, _ =
        Runner.sweep_mapped ~params:app.params dev app.prog ~target_pid:tpid
          ~base:[] pair data
      in
      Array.for_all2
        (fun (cand : Runner.sweep_candidate) m ->
          let one =
            Runner.run_gpu_mapped ~params:app.params dev app.prog
              (fun _ -> m)
              data
          in
          cand.sc_digest = Some (Runner.result_digest one))
        results pair)

(* ----- counting: every candidate is evaluated once and counted once,
   and the shape count is the number of distinct shape keys ----- *)

let test_sweep_counts () =
  let app = Ppat_apps.Sum_rows_cols.sum_cols ~r:48 ~c:24 () in
  let data = Ppat_apps.App.input_data app in
  let tpid, cands = space app in
  let evaluated0 = cval "sweep.candidates_evaluated" in
  let results, stats =
    Runner.sweep_mapped ~params:app.params dev app.prog ~target_pid:tpid
      ~base:[] cands data
  in
  Alcotest.(check int) "every candidate counted" (Array.length cands)
    (int_of_float (cval "sweep.candidates_evaluated" -. evaluated0));
  let shapes = Hashtbl.create 16 in
  Array.iter
    (fun (c : Runner.sweep_candidate) ->
      match c.sc_shape with
      | Some s -> Hashtbl.replace shapes s ()
      | None -> ())
    results;
  Alcotest.(check int) "distinct shapes" (Hashtbl.length shapes)
    stats.Runner.sw_shapes;
  let ok =
    Array.fold_left
      (fun acc (c : Runner.sweep_candidate) ->
        if Result.is_ok c.sc_result then acc + 1 else acc)
      0 results
  in
  Alcotest.(check int) "successes + failed = population"
    (Array.length cands) (ok + stats.sw_failed)

(* ----- pure Sweep helpers ----- *)

let test_group_by () =
  let key = function
    | 0 | 3 -> Some "a"
    | 1 -> Some "b"
    | 2 -> None
    | 4 -> Some "b"
    | _ -> assert false
  in
  Alcotest.(check (list (pair string (list int))))
    "first-seen groups, ascending members, None dropped"
    [ ("a", [ 0; 3 ]); ("b", [ 1; 4 ]) ]
    (Sweep.group_by ~key 5)

(* the sample rule: each ranking's top [top], plus every [stride n]-th
   index, ascending and once each *)
let test_sample () =
  let sample = Alcotest.(list int) in
  Alcotest.(check int) "stride of 100" 8 (Sweep.stride 100);
  Alcotest.(check int) "stride of a small space" 1 (Sweep.stride 11);
  Alcotest.(check sample) "union of top-k and stride, ascending, deduped"
    [ 0; 3; 8; 15; 16; 24; 32; 40; 48; 50; 56; 64; 72; 80; 88; 96; 99 ]
    (Sweep.sample ~top:2 [ [| 99; 3; 1 |]; [| 15; 99 |]; [| 50; 16; 8 |] ] 100);
  Alcotest.(check sample) "stride 1 on a small space takes everything"
    [ 0; 1; 2; 3; 4 ]
    (Sweep.sample ~top:1 [ [| 4; 0; 1; 2; 3 |] ] 5);
  Alcotest.(check sample) "k >= n" (List.init 30 Fun.id)
    (Sweep.sample ~top:99 [ Array.init 30 (fun i -> 29 - i) ] 30);
  Alcotest.(check sample) "no rankings: the stride alone"
    (List.init 15 (fun i -> 2 * i))
    (Sweep.sample ~top:6 [] 30);
  Alcotest.(check sample) "empty space" [] (Sweep.sample ~top:6 [] 0)

let test_regret () =
  Alcotest.(check (float 1e-9)) "regret" 0.5 (Sweep.regret ~best:2. 3.);
  Alcotest.(check (float 1e-9)) "regret degenerate best" 0.
    (Sweep.regret ~best:0. 3.)

(* ----- Jsonx: non-finite floats can never serialise unescaped ----- *)

let test_jsonx_nonfinite () =
  let module J = Ppat_profile.Jsonx in
  Alcotest.(check string) "nan renders null" "null"
    (J.to_string ~minify:true (J.Float nan));
  Alcotest.(check string) "inf renders null" "null"
    (J.to_string ~minify:true (J.Float infinity));
  Alcotest.(check bool) "number nan = Null" true (J.number nan = J.Null);
  Alcotest.(check bool) "number -inf = Null" true
    (J.number neg_infinity = J.Null);
  Alcotest.(check bool) "number finite = Float" true
    (J.number 1.5 = J.Float 1.5);
  (* a document holding a raw non-finite Float still round-trips as
     valid JSON with an explicit null *)
  let doc = J.Obj [ ("rho", J.Float nan); ("x", J.Float 2.) ] in
  match J.of_string (J.to_string doc) with
  | Ok j ->
    Alcotest.(check bool) "parsed back" true
      (J.member "rho" j = Some J.Null)
  | Error e -> Alcotest.failf "exported JSON failed to parse: %s" e

(* ----- fail-fast PPAT_* parsing ----- *)

let test_env_parsers () =
  let module T = Ppat_gpu.Tuning in
  Alcotest.(check bool) "bool ok" true (T.parse_bool ~name:"V" "On" = Ok true);
  Alcotest.(check bool) "bool off" true
    (T.parse_bool ~name:"V" " no " = Ok false);
  (match T.parse_bool ~name:"PPAT_SHUFFLE" "maybe" with
   | Error e ->
     Alcotest.(check bool) "error names the variable" true
       (Astring_like.contains e "PPAT_SHUFFLE");
     Alcotest.(check bool) "error lists accepted values" true
       (Astring_like.contains e "true")
   | Ok _ -> Alcotest.fail "'maybe' accepted as a boolean");
  Alcotest.(check bool) "pos int ok" true
    (T.parse_pos_int ~name:"V" "8" = Ok 8);
  (match T.parse_pos_int ~name:"PPAT_SIM_JOBS" "0" with
   | Error e ->
     Alcotest.(check bool) "zero rejected with the name" true
       (Astring_like.contains e "PPAT_SIM_JOBS")
   | Ok _ -> Alcotest.fail "0 accepted as a job count");
  (match T.parse_pos_int ~name:"PPAT_SIM_JOBS" "four" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "'four' accepted as a job count");
  let choices = [ ([ "compiled"; "closure" ], 0); ([ "reference" ], 1) ] in
  Alcotest.(check bool) "enum alias" true
    (T.parse_enum ~name:"V" choices " Closure " = Ok 0);
  match T.parse_enum ~name:"PPAT_ENGINE" choices "fast" with
  | Error e ->
    Alcotest.(check bool) "enum error lists canonical aliases" true
      (Astring_like.contains e "compiled|reference")
  | Ok _ -> Alcotest.fail "'fast' accepted as an engine"

(* one parser per enum, shared by `ppat` and `ppat serve`: every
   alias resolves, and a bad value is an [Error] naming the flag (or
   field) it came from and the accepted values — never an exception *)
let test_value_parsers () =
  let module S = Ppat_core.Strategy in
  let module I = Ppat_kernel.Interp in
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool) ("strategy " ^ s) true
        (S.of_string ~name:"-s" s = Ok want))
    [
      ("auto", S.Auto); ("multidim", S.Auto); ("1d", S.One_d);
      ("one_d", S.One_d); ("tbt", S.Thread_block_thread);
      ("thread_block", S.Thread_block_thread); ("warp", S.Warp_based);
      ("warp_based", S.Warp_based);
    ];
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool) ("engine " ^ s) true
        (I.engine_of_string ~name:"--engine" s = Ok want))
    [
      ("compiled", I.Compiled); ("closure", I.Compiled);
      ("reference", I.Reference); ("ref", I.Reference);
      ("interp", I.Reference);
    ];
  List.iter
    (fun e ->
      Alcotest.(check bool) "engine name round-trips" true
        (I.engine_of_string ~name:"e" (I.engine_name e) = Ok e))
    [ I.Compiled; I.Reference ];
  let rejects what name accepted = function
    | Ok _ -> Alcotest.failf "%s: bogus value accepted" what
    | Error e ->
      Alcotest.(check bool) (what ^ " error names the flag") true
        (Astring_like.contains e name);
      Alcotest.(check bool) (what ^ " error lists accepted values") true
        (Astring_like.contains e accepted)
  in
  rejects "strategy" "-s" "auto|1d|tbt|warp" (S.of_string ~name:"-s" "bogus");
  rejects "engine" "--engine" "compiled|reference"
    (I.engine_of_string ~name:"--engine" "bogus")

(* setting then restoring the variable: the suite may itself run under
   PPAT_SIM_JOBS (the parallel CI lane), so the previous value — or the
   default-equivalent when it was unset — is always put back *)
let with_env name bad_value ~default f =
  let old = Sys.getenv_opt name in
  Unix.putenv name bad_value;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv name (Option.value ~default old))
    f

let test_env_fail_fast () =
  with_env "PPAT_SIM_JOBS" "lots" ~default:"1" (fun () ->
      match Ppat_kernel.Interp.default_jobs () with
      | exception Ppat_gpu.Tuning.Bad_env e ->
        Alcotest.(check bool) "names PPAT_SIM_JOBS" true
          (Astring_like.contains e "PPAT_SIM_JOBS")
      | n -> Alcotest.failf "PPAT_SIM_JOBS=lots parsed as %d" n);
  with_env "PPAT_ENGINE" "turbo" ~default:"compiled" (fun () ->
      match Ppat_kernel.Interp.default_engine () with
      | exception Ppat_gpu.Tuning.Bad_env e ->
        Alcotest.(check bool) "names PPAT_ENGINE" true
          (Astring_like.contains e "PPAT_ENGINE")
      | _ -> Alcotest.fail "PPAT_ENGINE=turbo accepted");
  with_env "PPAT_COST_MODEL" "psychic" ~default:"soft" (fun () ->
      match Cost_model.default () with
      | exception Ppat_gpu.Tuning.Bad_env e ->
        Alcotest.(check bool) "names PPAT_COST_MODEL" true
          (Astring_like.contains e "PPAT_COST_MODEL")
      | _ -> Alcotest.fail "PPAT_COST_MODEL=psychic accepted");
  with_env "PPAT_SHUFFLE" "maybe" ~default:"0" (fun () ->
      match Ppat_codegen.Lower.effective_options () with
      | exception Ppat_gpu.Tuning.Bad_env e ->
        Alcotest.(check bool) "names PPAT_SHUFFLE" true
          (Astring_like.contains e "PPAT_SHUFFLE")
      | _ -> Alcotest.fail "PPAT_SHUFFLE=maybe accepted");
  (* valid values still parse after the failures *)
  with_env "PPAT_SIM_JOBS" "3" ~default:"1" (fun () ->
      Alcotest.(check int) "valid value honoured" 3
        (Ppat_kernel.Interp.default_jobs ()))

let tests =
  [
    Alcotest.test_case "sweep bit-identity (engines x jobs)" `Slow
      test_bit_identity;
    QCheck_alcotest.to_alcotest prop_random_bit_identity;
    Alcotest.test_case "candidate, shape and failure counts" `Quick
      test_sweep_counts;
    Alcotest.test_case "group_by" `Quick test_group_by;
    Alcotest.test_case "mapspace sample rule" `Quick test_sample;
    Alcotest.test_case "regret" `Quick test_regret;
    Alcotest.test_case "jsonx non-finite guard" `Quick test_jsonx_nonfinite;
    Alcotest.test_case "env parsers" `Quick test_env_parsers;
    Alcotest.test_case "strategy and engine parsers" `Quick
      test_value_parsers;
    Alcotest.test_case "env fail-fast" `Quick test_env_fail_fast;
  ]
