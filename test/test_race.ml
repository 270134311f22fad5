(* Static race / barrier checker (lib/check/race.ml) and the shuffle
   lowering's observable contract.

   The checker is validated three ways: hand-written kernels with known
   verdicts, a dropped-barrier mutant of a real staged kernel, and a
   randomised cross-check against a brute-force two-thread interleaving
   oracle on small geometries. The shuffle tests pin the lowering's
   guarantee: same buffers bit for bit, fewer barriers, no shared-memory
   traffic for a warp-fitting x reduction. *)

open Ppat_ir
module Kir = Ppat_kernel.Kir
module Race = Ppat_check.Race
module Runner = Ppat_harness.Runner
module Strategy = Ppat_core.Strategy
module Lower = Ppat_codegen.Lower
module A = Ppat_apps

let dev = Ppat_gpu.Device.k20c

let kernel ?(nregs = 2) ?(smem = []) body =
  {
    Kir.kname = "k";
    nregs;
    reg_names = Array.init nregs (fun i -> Printf.sprintf "r%d" i);
    reg_types = Array.make nregs Ty.I32;
    smem;
    body;
  }

let launch ?(block = (32, 2, 1)) k =
  { Kir.kernel = k; grid = (1, 1, 1); block; kparams = [] }

let sm64 = [ { Kir.sname = "sm"; selem = Ty.I32; selems = 64 } ]

(* tx + 32*ty, the block-linear id for a (32, 2, 1) block *)
let lin =
  Kir.Bin
    (Exp.Add, Kir.Tid Kir.X, Kir.Bin (Exp.Mul, Kir.Tid Kir.Y, Kir.Int 32))

(* ----- hand-written kernels ----- *)

let test_hand_verdicts () =
  (* every thread writes slot 0: a sure cross-warp write/write race *)
  let hot = launch (kernel ~smem:sm64 [ Kir.Store_s ("sm", Kir.Int 0, Kir.Int 1) ]) in
  let rep = Race.check hot in
  Alcotest.(check bool) "hot slot races" true (rep.Race.races <> []);
  Alcotest.(check bool) "hot slot race is sure" true
    (List.for_all (fun r -> r.Race.r_sure) rep.Race.races);
  (* mirrored exchange without a barrier: thread t reads the slot thread
     63-t writes — racy; inserting the barrier makes it clean *)
  let mirror = Kir.Bin (Exp.Sub, Kir.Int 63, lin) in
  let exchange sync =
    launch
      (kernel ~smem:sm64
         ([ Kir.Store_s ("sm", lin, Kir.Int 1) ]
         @ (if sync then [ Kir.Sync ] else [])
         @ [ Kir.Set (1, Kir.Load_s ("sm", mirror)) ]))
  in
  let racy = Race.check (exchange false) in
  Alcotest.(check bool) "unsynced exchange races" true (racy.Race.races <> []);
  Alcotest.(check bool) "unsynced exchange is sure" true
    (List.exists (fun r -> r.Race.r_sure) racy.Race.races);
  Alcotest.(check bool) "synced exchange clean" true
    (Race.clean (Race.check (exchange true)));
  (* private slot per thread, no barrier needed: the diagonal refutation
     must prove this without search *)
  let private_slot =
    launch
      (kernel ~smem:sm64
         [
           Kir.Store_s ("sm", lin, Kir.Int 1);
           Kir.Set (1, Kir.Load_s ("sm", lin));
         ])
  in
  Alcotest.(check bool) "private slots clean" true
    (Race.clean (Race.check private_slot))

let test_divergence () =
  let guarded_sync =
    launch
      (kernel
         [ Kir.If (Kir.Cmp (Exp.Lt, Kir.Tid Kir.X, Kir.Int 16), [ Kir.Sync ], []) ])
  in
  let rep = Race.check guarded_sync in
  Alcotest.(check bool) "guarded barrier reported" true
    (rep.Race.divergence <> []);
  let divergent_shfl =
    launch
      (kernel
         [
           Kir.If
             ( Kir.Cmp (Exp.Lt, Kir.Tid Kir.X, Kir.Int 16),
               [ Kir.Set (1, Kir.Shfl_down (Kir.Reg 1, Kir.Int 1)) ],
               [] );
         ])
  in
  let rep = Race.check divergent_shfl in
  Alcotest.(check bool) "divergent shuffle reported" true
    (rep.Race.divergence <> []);
  let converged_shfl =
    launch (kernel [ Kir.Set (1, Kir.Shfl_down (Kir.Reg 1, Kir.Int 1)) ])
  in
  Alcotest.(check bool) "converged shuffle clean" true
    (Race.clean (Race.check converged_shfl))

(* ----- staged plans ----- *)

let stage_launches ?(opts = Lower.default_options) (app : A.App.t) :
    (string * Kir.launch) list =
  let params = Runner.analysis_params app.prog app.params in
  List.concat_map
    (fun (n : Pat.nested) ->
      let c = Ppat_core.Collect.collect ~params ?bind:n.bind dev app.prog n.pat in
      let r = Ppat_core.Search.search dev c in
      match Lower.lower dev ~opts ~params app.prog n r.mapping with
      | lowered ->
        List.map
          (fun (l : Kir.launch) -> (l.Kir.kernel.Kir.kname, l))
          lowered.Lower.launches
      | exception Lower.Unsupported _ -> [])
    (Pat.launches app.prog)

let rec strip_syncs (s : Kir.stmt) : Kir.stmt option =
  match s with
  | Kir.Sync -> None
  | Kir.If (c, t, e) ->
    Some (Kir.If (c, List.filter_map strip_syncs t, List.filter_map strip_syncs e))
  | Kir.For f -> Some (Kir.For { f with body = List.filter_map strip_syncs f.body })
  | Kir.While (c, b) -> Some (Kir.While (c, List.filter_map strip_syncs b))
  | s -> Some s

let test_dropped_sync_mutant () =
  (* sum_cols reduces along y: its tree pairs partners across warps, so
     removing the barriers must surface as a race *)
  let app = A.Sum_rows_cols.sum_cols () in
  let launches = stage_launches app in
  let flagged = ref false and had_sync = ref false in
  List.iter
    (fun (name, (l : Kir.launch)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s clean before mutation" name)
        true
        (Race.clean (Race.check ~warp_size:dev.Ppat_gpu.Device.warp_size l));
      let body' = List.filter_map strip_syncs l.Kir.kernel.Kir.body in
      if body' <> l.Kir.kernel.Kir.body then begin
        had_sync := true;
        let mutant = { l with Kir.kernel = { l.Kir.kernel with Kir.body = body' } } in
        let rep = Race.check ~warp_size:dev.Ppat_gpu.Device.warp_size mutant in
        if rep.Race.races <> [] then flagged := true
      end)
    launches;
  Alcotest.(check bool) "a kernel had barriers to drop" true !had_sync;
  Alcotest.(check bool) "dropped-barrier mutant flagged" true !flagged

let test_registry_race_free () =
  List.iter
    (fun shuffle ->
      let opts = { Lower.default_options with Lower.shuffle } in
      List.iter
        (fun (name, app) ->
          List.iter
            (fun (kname, l) ->
              let rep =
                Race.check ~warp_size:dev.Ppat_gpu.Device.warp_size l
              in
              if not (Race.clean rep) then
                Alcotest.failf "%s/%s (shuffle=%b): %s" name kname shuffle
                  (Format.asprintf "%a" Race.pp_report rep))
            (stage_launches ~opts app))
        [
          ("sum_rows", A.Sum_rows_cols.sum_rows ());
          ("sum_cols", A.Sum_rows_cols.sum_cols ());
          ("sum_weighted_rows", A.Sum_rows_cols.sum_weighted_rows ());
          ("sum_weighted_cols", A.Sum_rows_cols.sum_weighted_cols ());
          ("nearest_neighbor", A.Nearest_neighbor.app ());
          ("gaussian_r", A.Gaussian.app A.Gaussian.R);
          ("bfs", A.Bfs.app ());
          ("hotspot_r", A.Hotspot.app A.Hotspot.R);
          ("pathfinder", A.Pathfinder.app ());
          ("lud_r", A.Lud.app A.Lud.R);
          ("pagerank", A.Pagerank.app ());
          ("qpscd", A.Qpscd.app ());
          ("msm_cluster", A.Msm_cluster.app ());
          ("naive_bayes", A.Naive_bayes.app ());
          ("gemm", A.Gemm.app ());
          ("fig8", A.Experiments.fig8_app ());
        ])
    [ false; true ]

(* ----- randomised oracle cross-check ----- *)

(* concrete evaluation of the restricted expression forms the generator
   emits: constants, tids, the loop counter in register 0, add/sub/mul *)
let rec ceval (tx, ty) k (e : Kir.exp) =
  match e with
  | Kir.Int n -> n
  | Kir.Tid Kir.X -> tx
  | Kir.Tid Kir.Y -> ty
  | Kir.Tid Kir.Z -> 0
  | Kir.Reg 0 -> k
  | Kir.Bin (Exp.Add, a, b) -> ceval (tx, ty) k a + ceval (tx, ty) k b
  | Kir.Bin (Exp.Sub, a, b) -> ceval (tx, ty) k a - ceval (tx, ty) k b
  | Kir.Bin (Exp.Mul, a, b) -> ceval (tx, ty) k a * ceval (tx, ty) k b
  | _ -> 0

(* (phase, slot, is_write) events of one thread; phases advance at the
   generator's top-level barriers only *)
let events t body =
  let evs = ref [] and phase = ref 0 in
  let rec go k (s : Kir.stmt) =
    match s with
    | Kir.Store_s (_, i, _) -> evs := (!phase, ceval t k i, true) :: !evs
    | Kir.Set (_, Kir.Load_s (_, i)) -> evs := (!phase, ceval t k i, false) :: !evs
    | Kir.Sync -> incr phase
    | Kir.If (Kir.Cmp (op, a, b), tb, eb) ->
      let va = ceval t k a and vb = ceval t k b in
      let taken =
        match op with
        | Exp.Lt -> va < vb
        | Exp.Le -> va <= vb
        | Exp.Eq -> va = vb
        | Exp.Ne -> va <> vb
        | Exp.Gt -> va > vb
        | Exp.Ge -> va >= vb
      in
      List.iter (go k) (if taken then tb else eb)
    | Kir.For { lo; hi; body; _ } ->
      for kv = ceval t k lo to ceval t k hi - 1 do
        List.iter (go kv) body
      done
    | _ -> ()
  in
  List.iter (go 0) body;
  !evs

let oracle_race (l : Kir.launch) =
  let bx, by, _ = l.Kir.block in
  let threads = ref [] in
  for tx = 0 to bx - 1 do
    for ty = 0 to by - 1 do
      threads := ((tx, ty), events (tx, ty) l.Kir.kernel.Kir.body) :: !threads
    done
  done;
  List.exists
    (fun (t1, e1) ->
      List.exists
        (fun (t2, e2) ->
          t1 <> t2
          && List.exists
               (fun (p1, a1, w1) ->
                 List.exists
                   (fun (p2, a2, w2) -> p1 = p2 && a1 = a2 && (w1 || w2))
                   e2)
               e1)
        !threads)
    !threads

let test_oracle () =
  let rs = Random.State.make [| 0x9a7e; 0x51de |] in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let n_racy = ref 0 and n_clean = ref 0 in
  for _ = 1 to 200 do
    let bx = pick [| 1; 2; 4 |] and by = pick [| 1; 2 |] in
    let idx ?(loop = false) () =
      let e = Kir.Int (Random.State.int rs 4) in
      let term c v = Kir.Bin (Exp.Add, e, Kir.Bin (Exp.Mul, Kir.Int c, v)) in
      let e =
        match Random.State.int rs 3 with
        | 0 -> e
        | c -> term c (Kir.Tid Kir.X)
      in
      let e =
        match Random.State.int rs 3 with
        | 0 -> e
        | c -> Kir.Bin (Exp.Add, e, Kir.Bin (Exp.Mul, Kir.Int c, Kir.Tid Kir.Y))
      in
      if loop && Random.State.bool rs then
        Kir.Bin (Exp.Add, e, Kir.Reg 0)
      else e
    in
    let access ?loop () =
      if Random.State.bool rs then
        Kir.Store_s ("sm", idx ?loop (), Kir.Int 7)
      else Kir.Set (1, Kir.Load_s ("sm", idx ?loop ()))
    in
    let stmt () =
      match Random.State.int rs 6 with
      | 0 | 1 -> access ()
      | 2 -> Kir.Sync
      | 3 ->
        Kir.If
          ( Kir.Cmp (Exp.Lt, Kir.Tid Kir.X, Kir.Int (1 + Random.State.int rs 3)),
            [ access () ],
            [] )
      | _ ->
        Kir.For
          {
            reg = 0;
            lo = Kir.Int 0;
            hi = Kir.Int (1 + Random.State.int rs 3);
            step = Kir.Int 1;
            body = [ access ~loop:true () ];
          }
    in
    let body = List.init (2 + Random.State.int rs 5) (fun _ -> stmt ()) in
    let l =
      launch ~block:(bx, by, 1)
        (kernel ~smem:[ { Kir.sname = "sm"; selem = Ty.I32; selems = 32 } ] body)
    in
    (* lockstep off: the oracle interleaves freely, so the checker must
       not use the warp exemption *)
    let rep = Race.check ~lockstep:false l in
    let oracle = oracle_race l in
    if oracle then begin
      incr n_racy;
      if rep.Race.races = [] then
        Alcotest.failf "unsound: oracle race missed on %s"
          (Format.asprintf "%a" Kir.pp_kernel l.Kir.kernel)
    end
    else begin
      incr n_clean;
      if rep.Race.races <> [] then
        Alcotest.failf "imprecise on exactly-analysable kernel %s"
          (Format.asprintf "%a" Kir.pp_kernel l.Kir.kernel)
    end
  done;
  Alcotest.(check bool) "generator produced both verdicts" true
    (!n_racy > 10 && !n_clean > 10)

(* ----- shuffle lowering differential ----- *)

let test_shuffle_differential () =
  List.iter
    (fun ((app : A.App.t), expect_no_smem) ->
      let data = A.App.input_data app in
      let run ?(shuffle = false) engine jobs =
        Runner.run_gpu ~engine ~sim_jobs:jobs
          ~opts:{ Lower.default_options with Lower.shuffle }
          ~params:app.params dev app.prog Strategy.Auto data
      in
      let base = run Ppat_kernel.Interp.Compiled 1 in
      let shfl = run ~shuffle:true Ppat_kernel.Interp.Compiled 1 in
      (* identical buffers, bit for bit, under every engine and any
         worker-domain count *)
      List.iter
        (fun (r : Runner.gpu_result) ->
          Alcotest.(check bool)
            (app.A.App.name ^ ": buffers bit-identical") true
            (r.Runner.data = shfl.Runner.data))
        [
          base;
          run ~shuffle:true Ppat_kernel.Interp.Compiled 4;
          run ~shuffle:true Ppat_kernel.Interp.Reference 1;
        ];
      let s0 = base.Runner.stats and s1 = shfl.Runner.stats in
      Alcotest.(check bool) (app.A.App.name ^ ": baseline shuffle-free") true
        (s0.Ppat_gpu.Stats.shuffles = 0.);
      Alcotest.(check bool) (app.A.App.name ^ ": shuffles executed") true
        (s1.Ppat_gpu.Stats.shuffles > 0.);
      Alcotest.(check bool) (app.A.App.name ^ ": fewer barriers") true
        (s1.Ppat_gpu.Stats.syncs < s0.Ppat_gpu.Stats.syncs);
      if expect_no_smem then begin
        Alcotest.(check bool) (app.A.App.name ^ ": no smem traffic") true
          (s1.Ppat_gpu.Stats.smem_insts = 0.);
        Alcotest.(check bool) (app.A.App.name ^ ": no bank conflicts") true
          (s1.Ppat_gpu.Stats.smem_conflict_extra = 0.)
      end)
    [ (A.Sum_rows_cols.sum_rows (), true); (A.Qpscd.app (), false) ]

(* ----- validation extensions riding along with this layer ----- *)

let test_validate_extensions () =
  let k body = kernel ~nregs:2 body in
  (match
     Kir.validate
       (k [ Kir.For { reg = 0; lo = Kir.Int 0; hi = Kir.Int 4; step = Kir.Int 0; body = [] } ])
   with
  | Ok () -> Alcotest.fail "constant zero For step accepted"
  | Error _ -> ());
  (match
     Kir.validate
       (k
          [
            Kir.For
              {
                reg = 0;
                lo = Kir.Int 0;
                hi = Kir.Int 4;
                step = Kir.Int 1;
                body =
                  [
                    Kir.Atomic_add_ret
                      { reg = 99; buf = "b"; idx = Kir.Int 0; value = Kir.Int 1 };
                  ];
              };
          ])
   with
  | Ok () -> Alcotest.fail "out-of-range Atomic_add_ret.reg accepted in nested body"
  | Error _ -> ());
  match
    Kir.validate
      (k
         [
           Kir.For
             { reg = 0; lo = Kir.Int 0; hi = Kir.Int 4; step = Kir.Int 2; body = [] };
         ])
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid stepped loop rejected: %s" e

let tests =
  [
    Alcotest.test_case "hand-written kernel verdicts" `Quick test_hand_verdicts;
    Alcotest.test_case "barrier and warp-primitive divergence" `Quick
      test_divergence;
    Alcotest.test_case "dropped-barrier mutant flagged" `Quick
      test_dropped_sync_mutant;
    Alcotest.test_case "registry apps race-free (both shuffle modes)" `Quick
      test_registry_race_free;
    Alcotest.test_case "random kernels vs interleaving oracle" `Quick
      test_oracle;
    Alcotest.test_case "shuffle lowering differential" `Quick
      test_shuffle_differential;
    Alcotest.test_case "validate: For step and nested atomic register" `Quick
      test_validate_extensions;
  ]
