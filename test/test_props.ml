(* Property-based tests (qcheck) on the core invariants: coalescing,
   search, DOP control, and randomized program/backends agreement. *)
open Ppat_ir
module M = Ppat_core.Mapping
module Q = QCheck2

let dev = Ppat_gpu.Device.k20c

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- coalescing --- *)

let prop_coalesce_bounds =
  Q.Test.make ~name:"coalesce count within [1, lanes]" ~count:200
    Q.Gen.(list_size (int_range 1 32) (int_range 0 100_000))
    (fun addrs ->
      let t = Ppat_gpu.Memory.coalesce ~transaction_bytes:128 addrs in
      t >= 1 && t <= List.length addrs)

let prop_coalesce_permutation =
  Q.Test.make ~name:"coalesce order-independent" ~count:200
    Q.Gen.(list_size (int_range 1 32) (int_range 0 10_000))
    (fun addrs ->
      let t1 = Ppat_gpu.Memory.coalesce ~transaction_bytes:128 addrs in
      let t2 =
        Ppat_gpu.Memory.coalesce ~transaction_bytes:128 (List.rev addrs)
      in
      t1 = t2)

let prop_coalesce_contiguous =
  Q.Test.make ~name:"aligned contiguous f64 warp = 2 transactions" ~count:50
    Q.Gen.(int_range 0 1000)
    (fun base ->
      let addrs = List.init 32 (fun i -> (base * 256) + (i * 8)) in
      Ppat_gpu.Memory.coalesce ~transaction_bytes:128 addrs = 2)

(* --- search and DOP --- *)

let gen_sizes = Q.Gen.(pair (int_range 2 8192) (int_range 2 8192))

let prop_search_hard_feasible =
  Q.Test.make ~name:"auto mapping satisfies hard constraints" ~count:40
    gen_sizes
    (fun (r, c) ->
      let app = Ppat_apps.Sum_rows_cols.sum_rows ~r ~c () in
      let n =
        match app.prog.Pat.steps with
        | Pat.Launch n :: _ -> n
        | _ -> assert false
      in
      let col =
        Ppat_core.Collect.collect ~params:app.params ?bind:n.bind dev
          app.prog n.pat
      in
      let res = Ppat_core.Search.search dev col in
      let m = res.mapping in
      M.threads_per_block m <= dev.max_threads_per_block
      && (match m.(1).M.span with
          | M.Span_all | M.Split _ -> true
          | M.Span _ -> false)
      && m.(0).M.dim <> m.(1).M.dim)

let prop_dop_control_direction =
  Q.Test.make ~name:"ControlDOP never moves away from the window" ~count:100
    Q.Gen.(
      triple (int_range 1 1_000_000) (int_range 0 1)
        (pair (int_range 0 10) (int_range 0 5)))
    (fun (size, dim_i, (b_exp, _)) ->
      let d = if dim_i = 0 then M.X else M.Y in
      let bsize = 1 lsl b_exp in
      let m0 = [| { M.dim = d; bsize; span = M.span1 } |] in
      let sizes = [| size |] in
      let before = M.dop ~sizes m0 in
      let after = M.dop ~sizes (Ppat_core.Dop.control dev ~sizes m0) in
      let mn = Ppat_gpu.Device.min_dop dev in
      let mx = Ppat_gpu.Device.max_dop dev in
      if before > mx then after <= before
      else if before < mn then after >= before
      else after = before)

let prop_score_monotone_subset =
  Q.Test.make ~name:"score is a sum of satisfied weights" ~count:50
    Q.Gen.(int_range 1 64)
    (fun k ->
      let softs =
        [
          Ppat_core.Constr.Min_block { weight = float_of_int k };
          Ppat_core.Constr.Fit { level = 0; size = 100; weight = 2. };
        ]
      in
      let m = [| { M.dim = M.X; bsize = 128; span = M.span1 } |] in
      Ppat_core.Score.score dev softs m = float_of_int k +. 2.)

let prop_next_pow2 =
  Q.Test.make ~name:"next_pow2" ~count:200
    Q.Gen.(int_range 1 100_000)
    (fun n ->
      let p = Ppat_core.Score.next_pow2 n in
      p >= n && p / 2 < n && p land (p - 1) = 0)

(* --- randomized backend agreement: a random reduce over a random array
   must agree between the CPU oracle and the simulated GPU under a random
   strategy --- *)

let reducers =
  [| Pat.sum_reducer; Pat.max_reducer; Pat.min_reducer |]

let prop_backend_agreement =
  Q.Test.make ~name:"random reduce agrees CPU vs GPU" ~count:25
    Q.Gen.(
      quad (int_range 1 200) (int_range 1 100) (int_range 0 2)
        (int_range 0 3))
    (fun (rows, cols, red_i, strat_i) ->
      let b = Builder.create () in
      let r = reducers.(red_i) in
      let top =
        Builder.map b ~label:"rows" ~size:(Pat.Sconst rows) (fun row ->
            let red =
              Builder.reduce b ~r ~label:"cols" ~size:(Pat.Sconst cols)
                (fun col -> ([], Exp.Read ("m", [ row; col ])))
            in
            ([ Builder.bind "s" red ], Exp.Var "s"))
      in
      let prog =
        {
          Pat.pname = "prop";
          defaults = [];
          buffers =
            [
              Pat.buffer "m" Ty.F64 [ Ty.Const rows; Ty.Const cols ] Pat.Input;
              Pat.buffer "out" Ty.F64 [ Ty.Const rows ] Pat.Output;
            ];
          steps = [ Pat.Launch { bind = Some "out"; pat = top } ];
        }
      in
      let data =
        [ ("m", Host.F (Ppat_apps.Workloads.farray ~seed:(rows + cols) (rows * cols))) ]
      in
      let strat =
        List.nth
          Ppat_core.Strategy.
            [ Auto; One_d; Thread_block_thread; Warp_based ]
          strat_i
      in
      let cpu = Ppat_harness.Runner.run_cpu prog data in
      let gpu = Ppat_harness.Runner.run_gpu dev prog strat data in
      Ppat_harness.Runner.check ~eps:1e-9 prog ~expected:cpu.cpu_data
        ~actual:gpu.data
      = Ok ())

let prop_filter_agreement =
  Q.Test.make ~name:"random filter agrees CPU vs GPU (as multiset)" ~count:20
    Q.Gen.(pair (int_range 1 500) (int_range 1 99))
    (fun (n, threshold) ->
      let b = Builder.create () in
      let top =
        Builder.filter b ~label:"keep" ~size:(Pat.Sconst n)
          ~pred:(fun i ->
            Exp.Cmp
              ( Exp.Lt,
                Exp.Read ("src", [ i ]),
                Exp.Float (float_of_int threshold /. 100.) ))
          (fun i -> Exp.Read ("src", [ i ]))
      in
      let prog =
        {
          Pat.pname = "propf";
          defaults = [];
          buffers =
            [
              Pat.buffer "src" Ty.F64 [ Ty.Const n ] Pat.Input;
              Pat.buffer "out" Ty.F64 [ Ty.Const n ] Pat.Output;
              Pat.buffer "out_count" Ty.I32 [ Ty.Const 1 ] Pat.Output;
            ];
          steps = [ Pat.Launch { bind = Some "out"; pat = top } ];
        }
      in
      let data = [ ("src", Host.F (Ppat_apps.Workloads.farray ~seed:n n)) ] in
      let cpu = Ppat_harness.Runner.run_cpu prog data in
      let gpu =
        Ppat_harness.Runner.run_gpu dev prog Ppat_core.Strategy.Auto data
      in
      Ppat_harness.Runner.check ~eps:1e-12 ~unordered:[ "out" ] prog
        ~expected:cpu.cpu_data ~actual:gpu.data
      = Ok ())

let prop_approx_equal_reflexive =
  Q.Test.make ~name:"approx_equal reflexive" ~count:100
    Q.Gen.(list_size (int_range 0 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let a = Host.F (Array.of_list xs) in
      Host.approx_equal a a)

(* allocation modes must never change results, only layout/cost *)
let prop_alloc_modes_equivalent =
  Q.Test.make ~name:"alloc modes agree on results" ~count:12
    Q.Gen.(pair (int_range 2 60) (int_range 2 60))
    (fun (r, c) ->
      let app = Ppat_apps.Sum_rows_cols.sum_weighted_cols ~r ~c () in
      let data = Ppat_apps.App.input_data app in
      let cpu = Ppat_harness.Runner.run_cpu ~params:app.params app.prog data in
      List.for_all
        (fun mode ->
          let opts =
            { Ppat_codegen.Lower.default_options with alloc_mode = mode }
          in
          let gpu =
            Ppat_harness.Runner.run_gpu ~opts ~params:app.params dev app.prog
              Ppat_core.Strategy.Auto data
          in
          Ppat_harness.Runner.check ~eps:1e-9 app.prog
            ~expected:cpu.cpu_data ~actual:gpu.data
          = Ok ())
        Ppat_codegen.Lower.[ Malloc; Prealloc; Prealloc_opt ])

let prop_stride_linear =
  Q.Test.make ~name:"stride is linear in the index expression" ~count:200
    Q.Gen.(pair (int_range (-50) 50) (int_range (-50) 50))
    (fun (a, b) ->
      let e =
        Exp.Bin
          ( Exp.Add,
            Exp.Bin (Exp.Mul, Exp.Int a, Exp.Idx 0),
            Exp.Int b )
      in
      Access.stride_of ~params:[] ~env:[] ~wrt:0 e = Access.Known a)

let prop_grid_covers_domain =
  Q.Test.make ~name:"span(1)/span(n) grids cover the domain" ~count:200
    Q.Gen.(triple (int_range 1 100_000) (int_range 0 5) (int_range 1 16))
    (fun (size, b_exp, n) ->
      let bsize = 32 lsl b_exp in
      let m =
        [| { M.dim = M.X; bsize; span = M.Span n } |]
      in
      let g = M.grid_extent ~sizes:[| size |] m M.X in
      g * bsize * n >= size && (g - 1) * bsize * n < size)

(* --- the result digest and the shape key (Ppat_ir.Enc) --- *)

module Runner = Ppat_harness.Runner
module Stats = Ppat_gpu.Stats
module Kir = Ppat_kernel.Kir
module Lower = Ppat_codegen.Lower

(* a small real run: one profile record per launch, float outputs *)
let digest_base =
  lazy
    (let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:16 ~c:8 () in
     Runner.run_gpu ~model:Ppat_core.Cost_model.Soft
       ~opts:Lower.default_options ~params:app.params dev app.prog
       Ppat_core.Strategy.Auto
       (Ppat_apps.App.input_data app))

(* one writer per counter; the length check below makes a new counter in
   Stats.to_assoc fail here until it gets one *)
let stat_bumps : (Stats.t -> unit) list =
  Stats.
    [
      (fun s -> s.warp_insts <- s.warp_insts +. 1.);
      (fun s -> s.mem_insts <- s.mem_insts +. 1.);
      (fun s -> s.transactions <- s.transactions +. 1.);
      (fun s -> s.bytes <- s.bytes +. 1.);
      (fun s -> s.l2_bytes <- s.l2_bytes +. 1.);
      (fun s -> s.smem_insts <- s.smem_insts +. 1.);
      (fun s -> s.smem_conflict_extra <- s.smem_conflict_extra +. 1.);
      (fun s -> s.syncs <- s.syncs +. 1.);
      (fun s -> s.shuffles <- s.shuffles +. 1.);
      (fun s -> s.divergent_branches <- s.divergent_branches +. 1.);
      (fun s -> s.atomics <- s.atomics +. 1.);
      (fun s -> s.atomic_serial_extra <- s.atomic_serial_extra +. 1.);
      (fun s -> s.mallocs <- s.mallocs +. 1.);
    ]

let breakdown_bumps :
    (Ppat_gpu.Timing.breakdown -> Ppat_gpu.Timing.breakdown) list =
  [
    (fun t -> { t with seconds = t.seconds *. 2. });
    (fun t -> { t with compute_cycles = t.compute_cycles +. 1. });
    (fun t -> { t with bandwidth_cycles = t.bandwidth_cycles +. 1. });
    (fun t -> { t with latency_cycles = t.latency_cycles +. 1. });
    (fun t -> { t with overhead_cycles = t.overhead_cycles +. 1. });
    (fun t -> { t with resident_warps = t.resident_warps + 1 });
    (fun t -> { t with active_sms = t.active_sms + 1 });
    (fun t ->
      { t with bound = (if t.bound = `Latency then `Compute else `Latency) });
  ]

(* edits the [k]-th profile record, modulo the record count *)
let with_record (r : Runner.gpu_result) k f =
  let k = k mod List.length r.profile in
  {
    r with
    profile =
      List.mapi (fun i (rk : Ppat_profile.Record.kernel) ->
          if i = k then f rk else rk) r.profile;
  }

let prop_digest_stats =
  Q.Test.make ~name:"result digest moves with any one counter" ~count:60
    Q.Gen.(pair (int_range 0 (List.length stat_bumps - 1)) (option nat))
    (fun (field, k) ->
      let r = Lazy.force digest_base in
      let bump s = let s = Stats.copy s in (List.nth stat_bumps field) s; s in
      (* [None] edits the aggregate, [Some k] a profile record's *)
      let r' =
        match k with
        | None -> { r with stats = bump r.stats }
        | Some k ->
          with_record r k (fun rk -> { rk with stats = bump rk.stats })
      in
      List.length stat_bumps = List.length (Stats.to_assoc r.stats)
      && Runner.result_digest r <> Runner.result_digest r')

let prop_digest_breakdown =
  Q.Test.make ~name:"result digest moves with any one breakdown field" ~count:40
    Q.Gen.(pair (int_range 0 (List.length breakdown_bumps - 1)) nat)
    (fun (field, k) ->
      let r = Lazy.force digest_base in
      let r' =
        with_record r k (fun rk ->
            let bump = List.nth breakdown_bumps field in
            { rk with breakdown = bump rk.breakdown })
      in
      Runner.result_digest r <> Runner.result_digest r')

let prop_digest_mapping =
  Q.Test.make ~name:"result digest moves with one mapping decision" ~count:40
    Q.Gen.(pair nat (int_range 0 2))
    (fun (k, what) ->
      let r = Lazy.force digest_base in
      let edit (d : M.decision) =
        match what with
        | 0 -> { d with bsize = d.bsize * 2 }
        | 1 ->
          { d with span = (if d.span = M.Span_all then M.span1 else M.Span_all) }
        | _ -> { d with dim = (if d.dim = M.X then M.Y else M.X) }
      in
      let r' =
        with_record r k (fun rk ->
            let m = Array.copy rk.mapping in
            m.(0) <- edit m.(0);
            { rk with mapping = m })
      in
      Runner.result_digest r <> Runner.result_digest r')

let prop_digest_output_bits =
  Q.Test.make ~name:"result digest moves with one output element's bits"
    ~count:100
    Q.Gen.(pair nat nat)
    (fun (b, i) ->
      let r = Lazy.force digest_base in
      let b = b mod List.length r.data in
      let data =
        List.mapi
          (fun j (name, buf) ->
            if j <> b then (name, buf)
            else
              match buf with
              | Host.F a ->
                let a = Array.copy a and i = i mod Array.length a in
                (* 0.0 and -0.0 compare equal but differ in bits *)
                a.(i) <-
                  (if a.(i) = 0. then -.a.(i)
                   else
                     Int64.float_of_bits
                       (Int64.logxor (Int64.bits_of_float a.(i)) 1L));
                (name, Host.F a)
              | Host.I a ->
                let a = Array.copy a and i = i mod Array.length a in
                a.(i) <- a.(i) + 1;
                (name, Host.I a))
          r.data
      in
      Runner.result_digest r <> Runner.result_digest { r with data })

let test_digest_signed_zero () =
  let r = Lazy.force digest_base in
  let zero x = { r with data = [ ("z", Host.F [| x |]) ] } in
  Alcotest.(check bool) "0.0 and -0.0 digest apart" true
    (Runner.result_digest (zero 0.) <> Runner.result_digest (zero (-0.)))

(* random index-shaped expressions over literals, registers, thread ids,
   operators and global loads *)
let gen_kexp =
  Q.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun i -> Kir.Int i) (int_range (-100) 100);
                 map (fun x -> Kir.Float x) (float_range (-1.) 1.);
                 map (fun r -> Kir.Reg r) (int_range 0 3);
                 pure (Kir.Tid Kir.X);
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map3 (fun op a b -> Kir.Bin (op, a, b))
                   (oneofl Exp.[ Add; Sub; Mul; Min; Max ])
                   (self (n - 1)) (self (n - 1));
                 map (fun i -> Kir.Load_g ("in", i)) (self (n - 1));
               ]))

let rec relit : Kir.exp -> Kir.exp = function
  | Kir.Int i -> Kir.Int (i + 7)
  | Kir.Float x -> Kir.Float (x +. 0.5)
  | Kir.Bin (op, a, b) -> Kir.Bin (op, relit a, relit b)
  | Kir.Load_g (n, i) -> Kir.Load_g (n, relit i)
  | e -> e

let key_of ?(out = "out") ?(block = 32) e =
  let kernel =
    {
      Kir.kname = "k";
      nregs = 4;
      reg_names = [| "a"; "b"; "c"; "d" |];
      reg_types = Array.make 4 Ty.I32;
      smem = [];
      body = [ Kir.Store_g (out, Kir.Tid Kir.X, e) ];
    }
  in
  Lower.shape_key
    {
      Lower.launches =
        [
          { Kir.kernel; grid = (4, 1, 1); block = (block, 1, 1); kparams = [] };
        ];
      temps = [];
      notes = [];
    }

let prop_shape_key =
  Q.Test.make ~name:"shape key wipes literals, keeps operators, names, shuffles"
    ~count:200 gen_kexp
    (fun e ->
      let b = Kir.Int 1 in
      key_of e = key_of ~block:64 (relit e)
      && key_of (Kir.Bin (Exp.Add, e, b)) <> key_of (Kir.Bin (Exp.Sub, e, b))
      && key_of e <> key_of ~out:"out2" e
      && key_of (Kir.Load_g ("in", e)) <> key_of (Kir.Load_g ("in2", e))
      && key_of (Kir.Shfl_down (e, b)) <> key_of (Kir.Shfl_idx (e, b)))

let tests =
  List.map to_alcotest
    [
      prop_coalesce_bounds;
      prop_coalesce_permutation;
      prop_coalesce_contiguous;
      prop_search_hard_feasible;
      prop_dop_control_direction;
      prop_score_monotone_subset;
      prop_next_pow2;
      prop_backend_agreement;
      prop_filter_agreement;
      prop_approx_equal_reflexive;
      prop_alloc_modes_equivalent;
      prop_stride_linear;
      prop_grid_covers_domain;
      prop_digest_stats;
      prop_digest_breakdown;
      prop_digest_mapping;
      prop_digest_output_bits;
      prop_shape_key;
    ]
  @ [
      Alcotest.test_case "result digest: 0.0 vs -0.0" `Quick
        test_digest_signed_zero;
    ]
