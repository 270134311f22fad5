(* SIMT interpreter: functional semantics, coalescing, divergence, barriers,
   bank conflicts, atomics, traps. Kernels are hand-written Kir. *)
open Ppat_ir
module Kir = Ppat_kernel.Kir
module Interp = Ppat_kernel.Interp
module Memory = Ppat_gpu.Memory

let dev = Ppat_gpu.Device.k20c
let ik n = Kir.Int n
let ( +: ) a b = Kir.Bin (Exp.Add, a, b)
let ( *: ) a b = Kir.Bin (Exp.Mul, a, b)
let ( <: ) a b = Kir.Cmp (Exp.Lt, a, b)

let kernel ?(nregs = 8) ?(smem = []) name body =
  {
    Kir.kname = name;
    nregs;
    reg_names = Array.init nregs (fun i -> Printf.sprintf "r%d" i);
    reg_types = Array.make nregs Ty.F64;
    smem;
    body;
  }

let gidx = (Kir.Bid Kir.X *: Kir.Bdim Kir.X) +: Kir.Tid Kir.X

let run ?(grid = (1, 1, 1)) ?(block = (32, 1, 1)) ?(kparams = []) mem k =
  Interp.run dev mem { Kir.kernel = k; grid; block; kparams }

let farr mem name a = ignore (Memory.load mem name (Host.F a))
let iarr mem name a = ignore (Memory.load mem name (Host.I a))

let read_f mem name =
  match Memory.to_host mem name with Host.F a -> a | _ -> assert false

let read_i mem name =
  match Memory.to_host mem name with Host.I a -> a | _ -> assert false

(* --- functional behaviour --- *)

let test_copy_kernel () =
  let mem = Memory.create () in
  farr mem "src" (Array.init 100 float_of_int);
  farr mem "dst" (Array.make 100 0.);
  let k =
    kernel "copy"
      [
        Kir.Set (0, gidx);
        Kir.If
          ( Kir.Reg 0 <: ik 100,
            [ Kir.Store_g ("dst", Kir.Reg 0, Kir.Load_g ("src", Kir.Reg 0)) ],
            [] );
      ]
  in
  (* note: reg 0 holds an int; override its declared type *)
  let k = { k with Kir.reg_types = [| Ty.I32 |] } in
  let k = { k with Kir.nregs = 1; reg_names = [| "i" |] } in
  let stats = run ~grid:(4, 1, 1) ~block:(32, 1, 1) mem k in
  Alcotest.(check (array (float 0.))) "copied"
    (Array.init 100 float_of_int) (read_f mem "dst");
  (* 100 of 128 threads load; 4 loads per warp-row of 32... at least some
     transactions happened and bytes flowed *)
  Alcotest.(check bool) "transactions counted" true (stats.transactions > 0.);
  Alcotest.(check bool) "insts counted" true (stats.warp_insts > 0.)

let test_coalescing_contrast () =
  (* contiguous f64 loads: 32 lanes x 8 B = 256 B = 2 transactions/warp;
     strided loads (stride 32) touch 32 segments *)
  let n = 1024 in
  let mem = Memory.create () in
  farr mem "a" (Array.make (n * 32) 1.);
  farr mem "o" (Array.make n 0.);
  let mk name idx =
    {
      (kernel name
         [
           Kir.Set (0, gidx);
           Kir.Store_g ("o", Kir.Reg 0, Kir.Load_g ("a", idx));
         ])
      with
      Kir.nregs = 1;
      reg_names = [| "i" |];
      reg_types = [| Ty.I32 |];
    }
  in
  let seq = run ~grid:(n / 256, 1, 1) ~block:(256, 1, 1) mem (mk "seq" (Kir.Reg 0)) in
  let strided =
    run ~grid:(n / 256, 1, 1) ~block:(256, 1, 1) mem
      (mk "strided" (Kir.Reg 0 *: ik 32))
  in
  (* loads: 2 vs 32 transactions per warp; the coalesced output store (2
     per warp) is common to both, so the overall ratio lands near 8x *)
  Alcotest.(check bool) "strided needs ~8x transactions" true
    (strided.transactions > 6. *. seq.transactions)

let test_divergence_counted () =
  let mem = Memory.create () in
  farr mem "o" (Array.make 32 0.);
  let diverge =
    kernel "div"
      [
        Kir.If
          ( Kir.Tid Kir.X <: ik 16,
            [ Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Float 1.) ],
            [ Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Float 2.) ] );
      ]
  in
  let s = run mem diverge in
  Alcotest.(check bool) "divergent branch" true (s.divergent_branches > 0.);
  let expected = Array.init 32 (fun i -> if i < 16 then 1. else 2.) in
  Alcotest.(check (array (float 0.))) "both sides ran" expected (read_f mem "o")

let test_uniform_branch_not_divergent () =
  let mem = Memory.create () in
  farr mem "o" (Array.make 32 0.);
  let k =
    kernel "uni"
      [
        Kir.If
          ( Kir.Bid Kir.X <: ik 1,
            [ Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Float 1.) ],
            [] );
      ]
  in
  let s = run mem k in
  Alcotest.(check (float 0.)) "no divergence" 0. s.divergent_branches

let test_tree_reduce_with_sync () =
  (* block-wide shared-memory tree sum of 256 values *)
  let n = 256 in
  let mem = Memory.create () in
  farr mem "a" (Array.init n float_of_int);
  farr mem "out" [| 0. |];
  let lin = Kir.Tid Kir.X in
  let steps = ref [] in
  let s = ref (n / 2) in
  while !s >= 1 do
    steps :=
      !steps
      @ [
          Kir.If
            ( lin <: ik !s,
              [
                Kir.Store_s
                  ( "sm",
                    lin,
                    Kir.Bin
                      ( Exp.Add,
                        Kir.Load_s ("sm", lin),
                        Kir.Load_s ("sm", lin +: ik !s) ) );
              ],
              [] );
          Kir.Sync;
        ];
    s := !s / 2
  done;
  let k =
    kernel ~smem:[ { Kir.sname = "sm"; selem = Ty.F64; selems = n } ]
      "tree"
      ([ Kir.Store_s ("sm", lin, Kir.Load_g ("a", lin)); Kir.Sync ]
       @ !steps
       @ [
           Kir.If
             ( Kir.Cmp (Exp.Eq, lin, ik 0),
               [ Kir.Store_g ("out", ik 0, Kir.Load_s ("sm", ik 0)) ],
               [] );
         ])
  in
  let stats = run ~block:(n, 1, 1) mem k in
  Alcotest.(check (float 1e-9)) "sum" (float_of_int (n * (n - 1) / 2))
    (read_f mem "out").(0);
  Alcotest.(check bool) "syncs counted" true (stats.syncs >= 8.)

let test_bank_conflicts () =
  (* 32 int lanes hitting the same bank (stride 32) conflict; stride 1
     does not *)
  let mem = Memory.create () in
  farr mem "o" (Array.make 32 0.);
  let mk name idx =
    kernel
      ~smem:[ { Kir.sname = "sm"; selem = Ty.I32; selems = 2048 } ]
      name
      [
        Kir.Store_s ("sm", idx, ik 1);
        Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Float 0.);
      ]
  in
  let good = run mem (mk "good" (Kir.Tid Kir.X)) in
  let bad = run mem (mk "bad" (Kir.Tid Kir.X *: ik 32)) in
  Alcotest.(check (float 0.)) "no conflicts stride 1" 0.
    good.smem_conflict_extra;
  Alcotest.(check bool) "stride 32 conflicts" true
    (bad.smem_conflict_extra >= 31.)

let test_atomics () =
  let mem = Memory.create () in
  iarr mem "c" [| 0 |];
  iarr mem "o" (Array.make 64 (-1));
  let k =
    {
      (kernel "atomic"
         [
           Kir.Atomic_add_ret
             { reg = 0; buf = "c"; idx = ik 0; value = ik 1 };
           Kir.Store_g ("o", Kir.Reg 0, Kir.Tid Kir.X);
         ])
      with
      Kir.nregs = 1;
      reg_names = [| "pos" |];
      reg_types = [| Ty.I32 |];
    }
  in
  let s = run ~grid:(2, 1, 1) mem k in
  Alcotest.(check int) "count" 64 (read_i mem "c").(0);
  (* every slot in [0,64) received exactly one thread id *)
  let o = Array.copy (read_i mem "o") in
  Array.sort compare o;
  Alcotest.(check bool) "all slots written" true (Array.for_all (fun x -> x >= 0) o);
  Alcotest.(check bool) "contention tracked" true (s.atomic_serial_extra > 0.)

let test_for_loop_lane_dependent () =
  (* each lane accumulates its own trip count: For bounds vary per lane *)
  let mem = Memory.create () in
  iarr mem "o" (Array.make 32 0);
  let k =
    {
      (kernel "loop"
         [
           Kir.Set (0, ik 0);
           Kir.For
             {
               reg = 1;
               lo = ik 0;
               hi = Kir.Tid Kir.X;
               step = ik 1;
               body = [ Kir.Set (0, Kir.Reg 0 +: ik 1) ];
             };
           Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Reg 0);
         ])
      with
      Kir.nregs = 2;
      reg_names = [| "acc"; "k" |];
      reg_types = [| Ty.I32; Ty.I32 |];
    }
  in
  ignore (run mem k);
  Alcotest.(check (array int)) "per-lane trips" (Array.init 32 (fun i -> i))
    (read_i mem "o")

(* --- traps --- *)

let expect_trap name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a trap" name
  | exception Interp.Trap _ -> ()

let test_traps () =
  let mem = Memory.create () in
  farr mem "a" (Array.make 4 0.);
  expect_trap "out of bounds" (fun () ->
      run mem (kernel "oob" [ Kir.Store_g ("a", ik 99, Kir.Float 0.) ]));
  expect_trap "type confusion" (fun () ->
      run mem (kernel "ty" [ Kir.Store_g ("a", ik 0, Kir.Int 3) ]));
  expect_trap "undefined register" (fun () ->
      run mem (kernel "undef" [ Kir.Store_g ("a", ik 0, Kir.Reg 3) ]));
  expect_trap "divergent sync" (fun () ->
      run mem
        (kernel "dsync"
           [ Kir.If (Kir.Tid Kir.X <: ik 16, [ Kir.Sync ], []) ]));
  expect_trap "unbound param" (fun () ->
      run mem (kernel "par" [ Kir.Store_g ("a", Kir.Param "zz", Kir.Float 0.) ]))

(* a launch the device cannot run traps with one message on every path:
   Interp.run under either engine, and a staged launch (compiled or
   reference) run the way the runner runs it *)
let test_launch_validation () =
  let module Staged = Ppat_kernel.Staged in
  let trap_of f =
    match f () with _ -> None | exception Interp.Trap m -> Some m
  in
  let k =
    {
      (kernel "fill" [ Kir.Store_g ("a", Kir.Tid Kir.X, Kir.Float 1.) ]) with
      Kir.nregs = 0;
      reg_names = [||];
      reg_types = [||];
    }
  in
  List.iter
    (fun (what, grid, block, says) ->
      let mem = Memory.create () in
      farr mem "a" (Array.make 2048 0.);
      let l = { Kir.kernel = k; grid; block; kparams = [] } in
      let want =
        trap_of (fun () -> Interp.run ~engine:Interp.Compiled dev mem l)
      in
      Alcotest.(check bool)
        (what ^ ": Interp.run names the fault")
        true
        (match want with
         | Some m -> Astring_like.contains m says
         | None -> false);
      List.iter
        (fun (path, f) ->
          Alcotest.(check (option string)) (what ^ ": " ^ path) want (trap_of f))
        [
          ( "reference engine",
            fun () -> Interp.run ~engine:Interp.Reference dev mem l );
          ( "staged compiled",
            fun () ->
              Staged.run_slaunch dev mem (Staged.stage_launch dev mem l ~meta:())
          );
          ( "staged reference",
            fun () ->
              Staged.run_slaunch dev mem (Staged.reference_slaunch l ~meta:()) );
        ])
    [
      ("oversized block", (1, 1, 1), (2048, 1, 1), "exceeds device limit 1024");
      ("empty grid", (0, 1, 1), (32, 1, 1), "empty launch");
    ]

let test_partial_warp () =
  (* 20-thread block: only existing lanes run, sync still legal *)
  let mem = Memory.create () in
  farr mem "o" (Array.make 20 0.);
  let k =
    kernel ~smem:[ { Kir.sname = "sm"; selem = Ty.F64; selems = 32 } ]
      "partial"
      [
        Kir.Store_s ("sm", Kir.Tid Kir.X, Kir.Float 2.);
        Kir.Sync;
        Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Load_s ("sm", Kir.Tid Kir.X));
      ]
  in
  ignore (run ~block:(20, 1, 1) mem k);
  Alcotest.(check (array (float 0.))) "all 20 wrote" (Array.make 20 2.)
    (read_f mem "o")

let tests =
  [
    Alcotest.test_case "copy kernel with guard" `Quick test_copy_kernel;
    Alcotest.test_case "coalescing contrast" `Quick test_coalescing_contrast;
    Alcotest.test_case "divergence counted" `Quick test_divergence_counted;
    Alcotest.test_case "uniform branch free" `Quick
      test_uniform_branch_not_divergent;
    Alcotest.test_case "tree reduce with barriers" `Quick
      test_tree_reduce_with_sync;
    Alcotest.test_case "shared-memory bank conflicts" `Quick test_bank_conflicts;
    Alcotest.test_case "atomic append" `Quick test_atomics;
    Alcotest.test_case "lane-dependent loops" `Quick
      test_for_loop_lane_dependent;
    Alcotest.test_case "traps" `Quick test_traps;
    Alcotest.test_case "launch validation on every path" `Quick
      test_launch_validation;
    Alcotest.test_case "partial warps" `Quick test_partial_warp;
  ]
