(* Differential testing of the two execution engines: the closure-compiled
   engine (Compile) must be bit-identical with the reference tree-walker
   (Interp) — same statistics, same output buffers — across the bench-suite
   apps and across random straight-line Kir kernels. *)
open Ppat_ir
module Kir = Ppat_kernel.Kir
module Interp = Ppat_kernel.Interp
module Memory = Ppat_gpu.Memory
module Stats = Ppat_gpu.Stats
module Q = QCheck2

let dev = Ppat_gpu.Device.k20c
let to_alcotest = QCheck_alcotest.to_alcotest

(* engine counters live in the metrics registry; tests read deltas *)
let metric name = Ppat_metrics.(Metrics.value (Metrics.counter name))

(* polymorphic compare, not (=): NaN must equal NaN bit-for-bit here *)
let buf_equal (a : Host.buf) (b : Host.buf) =
  match (a, b) with
  | Host.F x, Host.F y -> compare x y = 0
  | Host.I x, Host.I y -> x = y
  | _ -> false

let data_equal (a : Host.data) (b : Host.data) =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, b1) (n2, b2) -> String.equal n1 n2 && buf_equal b1 b2)
       a b

(* --- every bench app, both engines, exact agreement --- *)

let suite () =
  let module A = Ppat_apps in
  let s = Ppat_core.Strategy.Auto in
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:256 ~c:64 (), s, None);
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:128 ~c:48 (), s, None);
    ("hotspot", A.Hotspot.app ~n:32 ~steps:1 A.Hotspot.R, s, None);
    ( "mandelbrot-c",
      A.Mandelbrot.app ~h:16 ~w:16 ~max_iter:8 A.Mandelbrot.C,
      Ppat_core.Strategy.Warp_based,
      None );
    ("qpscd", A.Qpscd.app ~samples:32 ~dim:32 (), s, None);
    ( "msmCluster",
      A.Msm_cluster.app ~frames:64 ~centers:8 ~dims:8 (),
      s,
      None );
    ( "sumWeightedRows-malloc",
      A.Sum_rows_cols.sum_weighted_rows ~r:32 ~c:16 (),
      s,
      Some
        {
          Ppat_codegen.Lower.default_options with
          alloc_mode = Ppat_codegen.Lower.Malloc;
        } );
    (* in-place updates whose stores read the buffer they write *)
    ("gaussian", A.Gaussian.app ~n:24 ~steps:4 A.Gaussian.R, s, None);
    ("gaussian_c", A.Gaussian.app ~n:24 ~steps:4 A.Gaussian.C, s, None);
    ("lud", A.Lud.app ~n:24 ~steps:4 A.Lud.R, s, None);
    ("bfs", A.Bfs.app ~nodes:256 ~avg_degree:4 (), s, None);
  ]

(* apps checked across engines only: global atomics demote parallel
   launches to serial, so they cannot join the parallel suite *)
let engine_only () =
  let module A = Ppat_apps in
  [
    ( "naive_bayes",
      A.Naive_bayes.app ~docs:64 ~words:32 (),
      Ppat_core.Strategy.Auto,
      None );
  ]

let run_app engine (app : Ppat_apps.App.t) strat opts =
  let data = Ppat_apps.App.input_data app in
  Ppat_harness.Runner.run_gpu ~engine ?opts ~params:app.Ppat_apps.App.params
    dev app.Ppat_apps.App.prog strat data

let test_apps_differential () =
  List.iter
    (fun (name, app, strat, opts) ->
      let rr = run_app Interp.Reference app strat opts in
      let before = metric "engine.fallbacks" in
      let rc = run_app Interp.Compiled app strat opts in
      (* the closure engine must actually handle the bench suite, not
         quietly punt back to the tree-walker *)
      Alcotest.(check (float 0.))
        (name ^ ": no fallbacks")
        0. (metric "engine.fallbacks" -. before);
      Alcotest.(check bool)
        (name ^ ": aggregate stats bit-identical")
        true
        (Stats.equal rr.Ppat_harness.Runner.stats rc.stats);
      List.iter2
        (fun (a : Ppat_profile.Record.kernel) (b : Ppat_profile.Record.kernel)
           ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: launch %d (%s) stats bit-identical" name
               a.index a.kname)
            true
            (Stats.equal a.stats b.stats))
        rr.profile rc.profile;
      Alcotest.(check bool)
        (name ^ ": output buffers bit-identical")
        true
        (data_equal rr.data rc.data))
    (suite () @ engine_only ())

(* --- random straight-line kernels ---

   Registers 0..3 are int-typed, 4..7 float-typed by construction of the
   generator, which only emits well-typed, trap-free code: loads and
   stores clamp their index with [abs _ mod len], there is no division,
   and every register read is dominated by an assignment. With
   [~aliasing] it also emits stores and atomics into [fb]/[ib], the
   buffers its expressions load from, so lanes can read earlier lanes'
   writes within one statement. *)

let n_f = 64
let n_i = 64

let clamp len e = Kir.Bin (Exp.Mod, Kir.Un (Exp.Abs, e), Kir.Int len)

let gen_kernel_with ~aliasing : Kir.kernel Q.Gen.t =
  let open Q.Gen in
  let int_leaf defined =
    oneof
      ([
         map (fun n -> Kir.Int n) (int_range (-10) 10);
         return (Kir.Tid Kir.X);
         return (Kir.Bid Kir.X);
         return (Kir.Bdim Kir.X);
       ]
      @
      match List.filter (fun r -> r < 4) defined with
      | [] -> []
      | regs -> [ map (fun r -> Kir.Reg r) (oneofl regs) ])
  in
  let float_leaf defined =
    oneof
      ([
         map (fun x -> Kir.Float (float_of_int x /. 4.)) (int_range (-20) 20);
       ]
      @
      match List.filter (fun r -> r >= 4) defined with
      | [] -> []
      | regs -> [ map (fun r -> Kir.Reg r) (oneofl regs) ])
  in
  let arith = oneofl Exp.[ Add; Sub; Mul; Min; Max ] in
  let cmp = oneofl Exp.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let rec int_exp defined depth =
    if depth = 0 then int_leaf defined
    else
      frequency
        [
          (2, int_leaf defined);
          ( 3,
            let* op = arith in
            let* a = int_exp defined (depth - 1) in
            let+ b = int_exp defined (depth - 1) in
            Kir.Bin (op, a, b) );
          ( 1,
            let* c = bool_exp defined (depth - 1) in
            let* a = int_exp defined (depth - 1) in
            let+ b = int_exp defined (depth - 1) in
            Kir.Select (c, a, b) );
          ( 1,
            let+ i = int_exp defined (depth - 1) in
            Kir.Load_g ("ib", clamp n_i i) );
        ]
  and float_exp defined depth =
    if depth = 0 then float_leaf defined
    else
      frequency
        [
          (2, float_leaf defined);
          ( 3,
            let* op = arith in
            let* a = float_exp defined (depth - 1) in
            let+ b = float_exp defined (depth - 1) in
            Kir.Bin (op, a, b) );
          ( 1,
            let+ a = int_exp defined (depth - 1) in
            Kir.Un (Exp.I2f, a) );
          ( 1,
            let* c = bool_exp defined (depth - 1) in
            let* a = float_exp defined (depth - 1) in
            let+ b = float_exp defined (depth - 1) in
            Kir.Select (c, a, b) );
          ( 1,
            let+ i = int_exp defined (depth - 1) in
            Kir.Load_g ("fb", clamp n_f i) );
        ]
  and bool_exp defined depth =
    frequency
      [
        (1, map (fun b -> Kir.Bool b) bool);
        ( 2,
          let* op = cmp in
          let* a = int_exp defined depth in
          let+ b = int_exp defined depth in
          Kir.Cmp (op, a, b) );
        ( 1,
          let* op = cmp in
          let* a = float_exp defined depth in
          let+ b = float_exp defined depth in
          Kir.Cmp (op, a, b) );
      ]
  in
  let set_avoiding avoid defined =
    let* r =
      map (fun r -> if r = avoid then (r + 1) mod 8 else r) (int_range 0 7)
    in
    let+ e =
      if r < 4 then int_exp defined 2 else float_exp defined 2
    in
    (Kir.Set (r, e), r)
  in
  let set defined = set_avoiding (-1) defined in
  let rec stmts defined n =
    if n = 0 then return []
    else
      frequency
        ([
           ( 5,
            let* s, r = set defined in
            let+ rest = stmts (r :: defined) (n - 1) in
            s :: rest );
          ( 1,
            (* same register assigned in both branches stays defined *)
            let* c = bool_exp defined 1 in
            let* st, r = set defined in
            let* se, _ =
              let* e =
                if r < 4 then int_exp defined 2 else float_exp defined 2
              in
              return (Kir.Set (r, e), r)
            in
            let+ rest = stmts (r :: defined) (n - 1) in
            Kir.If (c, [ st ], [ se ]) :: rest );
          ( 1,
            let* r = int_range 0 3 in
            let* hi = int_range 1 4 in
            (* the body must not reassign the loop counter: a random
               counter write easily creates a 2^24-iteration loop *)
            let* s, _ = set_avoiding r (r :: defined) in
            let+ rest = stmts (r :: defined) (n - 1) in
            Kir.For
              {
                reg = r;
                lo = Kir.Int 0;
                hi = Kir.Int hi;
                step = Kir.Int 1;
                body = [ s ];
              }
            :: rest );
          ( 1,
            let* i = int_exp defined 1 in
            let* v = float_exp defined 1 in
            let+ rest = stmts defined (n - 1) in
            Kir.Atomic_add_g ("out_f", clamp n_f i, v) :: rest );
        ]
        @
        if not aliasing then []
        else
          [
            ( 2,
              let* i = int_exp defined 1 in
              let* v = float_exp defined 1 in
              let* atomic = bool in
              let+ rest = stmts defined (n - 1) in
              (if atomic then Kir.Atomic_add_g ("fb", clamp n_f i, v)
               else Kir.Store_g ("fb", clamp n_f i, v))
              :: rest );
            ( 2,
              let* i = int_exp defined 1 in
              let* v = int_exp defined 1 in
              let* kind = int_range 0 2 in
              let* r = int_range 0 3 in
              let+ rest =
                stmts (if kind = 2 then r :: defined else defined) (n - 1)
              in
              (match kind with
               | 0 -> Kir.Store_g ("ib", clamp n_i i, v)
               | 1 -> Kir.Atomic_add_g ("ib", clamp n_i i, v)
               | _ ->
                 Kir.Atomic_add_ret
                   { reg = r; buf = "ib"; idx = clamp n_i i; value = v })
              :: rest );
          ])
  in
  let* body = stmts [] 8 in
  let stores defined =
    let f_stores =
      match List.filter (fun r -> r >= 4) defined with
      | [] -> []
      | regs ->
        [
          (let* r = oneofl regs in
           let+ i = int_exp defined 1 in
           Kir.Store_g ("out_f", clamp n_f i, Kir.Reg r));
        ]
    in
    let i_stores =
      match List.filter (fun r -> r < 4) defined with
      | [] -> []
      | regs ->
        [
          (let* r = oneofl regs in
           let+ i = int_exp defined 1 in
           Kir.Store_g ("out_i", clamp n_i i, Kir.Reg r));
        ]
    in
    match f_stores @ i_stores with
    | [] -> return []
    | gens ->
      let* k = int_range 1 2 in
      list_repeat k (oneof gens)
  in
  let defined =
    let rec collect acc = function
      | [] -> acc
      | Kir.Set (r, _) :: rest -> collect (r :: acc) rest
      | Kir.If (_, [ Kir.Set (r, _) ], _) :: rest -> collect (r :: acc) rest
      | Kir.For { reg; body = [ Kir.Set (r, _) ]; _ } :: rest ->
        collect (r :: reg :: acc) rest
      | _ :: rest -> collect acc rest
    in
    collect [] body
  in
  let+ tail = stores defined in
  {
    Kir.kname = "random";
    nregs = 8;
    reg_names = Array.init 8 (Printf.sprintf "r%d");
    reg_types =
      Array.init 8 (fun i -> if i < 4 then Ty.I32 else Ty.F64);
    smem = [];
    body = body @ tail;
  }

let gen_kernel = gen_kernel_with ~aliasing:false

let fresh_mem () =
  let mem = Memory.create () in
  ignore
    (Memory.load mem "fb"
       (Host.F (Array.init n_f (fun i -> float_of_int (i * 7 mod 13) /. 3.))));
  ignore
    (Memory.load mem "ib" (Host.I (Array.init n_i (fun i -> (i * 5 mod 17) - 8))));
  ignore (Memory.load mem "out_f" (Host.F (Array.make n_f 0.)));
  ignore (Memory.load mem "out_i" (Host.I (Array.make n_i 0)));
  mem

let launch_of k =
  { Kir.kernel = k; grid = (2, 1, 1); block = (48, 1, 1); kparams = [] }

let run_one engine k =
  let mem = fresh_mem () in
  let l = launch_of k in
  (* jobs pinned to 1: random kernels may race distinct blocks' stores on
     the same element, so their buffers are only deterministic serially.
     Engine equivalence is what is under test here; parallel-vs-serial
     agreement is test_parallel's job. *)
  let stats = Interp.run ~engine ~jobs:1 dev mem l in
  let out =
    List.map
      (fun n -> (n, Memory.to_host mem n))
      [ "fb"; "ib"; "out_f"; "out_i" ]
  in
  (stats, out)

let prop_random_kernels =
  Q.Test.make
    ~name:
      "random straight-line kernels agree across engines, with aliasing \
       stores and atomics"
    ~print:(Format.asprintf "%a" Kir.pp_kernel)
    ~count:300 (gen_kernel_with ~aliasing:true) (fun k ->
      let sr, outr = run_one Interp.Reference k in
      let sc, outc = run_one Interp.Compiled k in
      Stats.equal sr sc && data_equal outr outc)

let kernel ?(nregs = 8) name body =
  {
    Kir.kname = name;
    nregs;
    reg_names = Array.init nregs (Printf.sprintf "r%d");
    reg_types = Array.init nregs (fun i -> if i < 4 then Ty.I32 else Ty.F64);
    smem = [];
    body;
  }

let lane_replays () = metric "engine.lane_replays"

(* [run] on both engines: the compiled run must take the lane-by-lane
   replay branch, without falling back, and agree bit for bit *)
let check_replay run =
  let sr, outr = run Interp.Reference in
  let before = lane_replays () and fallbacks = metric "engine.fallbacks" in
  let sc, outc = run Interp.Compiled in
  Alcotest.(check (float 0.)) "compiled, no fallback" 0.
    (metric "engine.fallbacks" -. fallbacks);
  Alcotest.(check bool) "replay branch taken" true (lane_replays () > before);
  Alcotest.(check bool) "stats bit-identical" true (Stats.equal sr sc);
  Alcotest.(check bool) "buffers bit-identical" true (data_equal outr outc)

let next_tid n =
  Kir.Bin (Exp.Mod, Kir.Bin (Exp.Add, Kir.Tid Kir.X, Kir.Int 1), Kir.Int n)

(* fb[(tid + 1) mod n] = fb[tid] + 1: every lane loads the element the
   lane below it stores, so the reference engine's lane-by-lane order
   chains the increments along the warp, while the node-major pass would
   load every element before any store. *)
let test_chain_replay () =
  let chain =
    Kir.Store_g
      ( "fb",
        next_tid n_f,
        Kir.Bin (Exp.Add, Kir.Load_g ("fb", Kir.Tid Kir.X), Kir.Float 1.) )
  in
  check_replay (fun engine -> run_one engine (kernel "chain" [ chain ]))

(* p[(tid + 1) mod n] = p[p[tid]] over p = [0; 1000; 1000; ...]: in lane
   order every lane first sees p[tid] = 0, written by the lane below it,
   so no load is out of bounds. The node-major pass loads the stale 1000
   and traps; that trap must send the statement to the lane-ordered
   replay instead of failing the launch. *)
let test_trap_replay () =
  let n = 64 in
  let p i = Kir.Load_g ("p", i) in
  let chase = Kir.Store_g ("p", next_tid n, p (p (Kir.Tid Kir.X))) in
  check_replay (fun engine ->
      let mem = Memory.create () in
      ignore
        (Memory.load mem "p"
           (Host.I (Array.init n (fun i -> if i = 0 then 0 else 1000))));
      let l =
        {
          Kir.kernel = kernel "chase" [ chase ];
          grid = (1, 1, 1);
          block = (48, 1, 1);
          kparams = [];
        }
      in
      let stats = Interp.run ~engine ~jobs:1 dev mem l in
      (stats, [ ("p", Memory.to_host mem "p") ]))

(* r = tid; r = shfl_idx(r, 31 - tid); out[tid] = r on one full warp:
   every lane reads its mirror lane's register before any lane's write
   lands (CUDA's rule), so the warp writes 31, 30, ..., 0. A lane-ordered
   read would see lanes 0-15 already overwritten from lane 16 on. *)
let test_shuffle_reads_before_writes () =
  let k =
    kernel "mirror"
      [
        Kir.Set (0, Kir.Tid Kir.X);
        Kir.Set
          (0, Kir.Shfl_idx (Kir.Reg 0, Kir.Bin (Exp.Sub, Kir.Int 31, Kir.Tid Kir.X)));
        Kir.Store_g ("out_i", Kir.Tid Kir.X, Kir.Reg 0);
      ]
  in
  let run engine =
    let mem = fresh_mem () in
    let l =
      { Kir.kernel = k; grid = (1, 1, 1); block = (32, 1, 1); kparams = [] }
    in
    let stats = Interp.run ~engine ~jobs:1 dev mem l in
    match Memory.to_host mem "out_i" with
    | Host.I a -> (stats, Array.sub a 0 32)
    | Host.F _ -> Alcotest.fail "out_i is an int buffer"
  in
  let sr, outr = run Interp.Reference in
  let sc, outc = run Interp.Compiled in
  let want = Array.init 32 (fun t -> 31 - t) in
  Alcotest.(check (array int)) "compiled engine" want outc;
  Alcotest.(check (array int)) "reference engine" want outr;
  Alcotest.(check bool) "stats bit-identical" true (Stats.equal sr sc)

(* --- forms the compiled engine rejects ---

   One kernel per rejection reason. The rejected statement sits under a
   branch no lane takes, so the reference engine runs the launch without
   trapping; the compiled engine must hand the whole launch to it. Two
   forms (a register/expression or atomic-return type mismatch) are
   always caught earlier by register type inference, whose reason is
   the one reported. *)
let rejected =
  let open Kir in
  let never s = If (Bool false, [ s ], []) in
  let store_f v = Store_g ("out_f", Int 0, v) in
  let loop reg lo hi step = For { reg; lo; hi; step; body = [] } in
  [
    ( "expected an integer, got a float",
      [ never (Store_g ("out_f", Float 1., Float 0.)) ] );
    ("expected a boolean, got a float", [ never (If (Float 1., [], [])) ]);
    ("expected a float", [ never (store_f (Int 1)) ]);
    ( "logical op on non-boolean",
      [ never (Store_g ("out_i", Int 0, Bin (Exp.And, Tid X, Int 1))) ] );
    ( "integer expression expected",
      [ never (loop 0 (Int 0) (Float 2.) (Int 1)) ] );
    ( "float expression expected",
      [ never (loop 4 (Float 0.) (Int 2) (Float 1.)) ] );
    ("mod on floats", [ never (store_f (Bin (Exp.Mod, Float 1., Float 2.))) ]);
    ( "mixed-type arithmetic",
      [ never (store_f (Bin (Exp.Add, Float 1., Int 2))) ] );
    ("unop operand type mismatch", [ never (store_f (Un (Exp.Sqrt, Int 4))) ]);
    ( "mixed-type comparison",
      [ never (Store_g ("out_i", Int 0, Cmp (Exp.Lt, Float 1., Int 2))) ] );
    ( "mixed-type select",
      [ never (store_f (Select (Cmp (Exp.Lt, Tid X, Int 3), Float 1., Int 2))) ]
    );
    ( "warp-primitive operand reads memory",
      [ never (store_f (Shfl_down (Load_g ("fb", Int 0), Int 1))) ] );
    ( "register assigned two types",
      [ Set (0, Int 1); never (Set (0, Float 1.)) ] );
    ( "register assigned two types",
      [
        Set (4, Float 1.);
        never
          (Atomic_add_ret { reg = 4; buf = "ib"; idx = Int 0; value = Int 1 });
      ] );
    ( "boolean loop counter",
      [ never (loop 0 (Bool false) (Bool true) (Bool true)) ] );
    ( "warp primitive in an atomic-return operand",
      [
        Set (0, Int 1);
        never
          (Atomic_add_ret
             {
               reg = 0;
               buf = "ib";
               idx = Int 0;
               value = Shfl_down (Reg 0, Int 1);
             });
      ] );
  ]

let test_rejections () =
  List.iter
    (fun (reason, body) ->
      let k =
        kernel "reject"
          (Kir.Store_g ("out_f", Kir.Tid Kir.X, Kir.Float 2.) :: body)
      in
      let sr, outr = run_one Interp.Reference k in
      let before = metric "engine.fallbacks" in
      let sc, outc = run_one Interp.Compiled k in
      Alcotest.(check (float 0.)) (reason ^ ": one fallback") 1.
        (metric "engine.fallbacks" -. before);
      let got =
        match Ppat_kernel.Compile.compile dev (fresh_mem ()) (launch_of k) with
        | Error got -> got
        | Ok _ -> ""
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: reason named (got %S)" reason got)
        true (Astring_like.contains got reason);
      Alcotest.(check bool) (reason ^ ": stats") true (Stats.equal sr sc);
      Alcotest.(check bool) (reason ^ ": buffers") true (data_equal outr outc))
    rejected

let tests =
  [
    Alcotest.test_case "bench apps differential" `Slow test_apps_differential;
    to_alcotest prop_random_kernels;
    Alcotest.test_case "cross-lane read-after-write replays lane by lane" `Quick
      test_chain_replay;
    Alcotest.test_case "a node-major trap replays lane by lane" `Quick
      test_trap_replay;
    Alcotest.test_case "rejected forms fall back per launch" `Quick
      test_rejections;
    Alcotest.test_case "shuffle sources are read before any lane writes"
      `Quick test_shuffle_reads_before_writes;
  ]
