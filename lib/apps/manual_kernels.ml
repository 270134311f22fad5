open Ppat_ir
module M = Ppat_core.Mapping
module Strategy = Ppat_core.Strategy
module Collect = Ppat_core.Collect
module Kir = Ppat_kernel.Kir
module Interp = Ppat_kernel.Interp
module Memory = Ppat_gpu.Memory
module Timing = Ppat_gpu.Timing
module Runner = Ppat_harness.Runner

type result = { seconds : float; data : Host.data }

(* ----- fixed-geometry manuals: the app's own program under hand-picked
   mappings ----- *)

let fixed ?(opts = Ppat_codegen.Lower.effective_options ()) dev pick
    (app : App.t) data =
  let prog = app.prog in
  let ap = Runner.analysis_params prog app.params in
  (* per top-level pattern: hand mapping if given, else the auto decision *)
  let decisions =
    List.map
      (fun (n : Pat.nested) ->
        let c = Collect.collect ~params:ap ?bind:n.bind dev prog n.pat in
        let strat =
          match pick n.pat.Pat.label with
          | Some m -> Strategy.Fixed m
          | None -> Strategy.Auto
        in
        let d = Strategy.decide ~shuffle:opts.shuffle dev c strat in
        (n.pat.Pat.pid, d.Strategy.mapping))
      (Pat.launches prog)
  in
  let r =
    Runner.run_gpu_mapped ~opts ~params:app.params dev prog
      (fun pid -> List.assoc pid decisions)
      data
  in
  { seconds = r.seconds; data = r.data }

let d dim bsize span = { M.dim; bsize; span }
let sp1 = M.span1

let nearest_neighbor dev app data =
  fixed dev (fun _ -> Some [| d M.X 256 sp1 |]) app data

let gaussian dev app data =
  let pick = function
    | "fan1" -> Some [| d M.X 256 sp1 |]
    (* the hand-written Fan2 puts rows on x: uncoalesced on row-major a *)
    | "fan2_r" -> Some [| d M.X 16 sp1; d M.Y 16 sp1 |]
    | "fan2_c" -> Some [| d M.Y 16 sp1; d M.X 16 sp1 |]
    | _ -> None
  in
  fixed dev pick app data

let hotspot dev app data =
  let pick = function
    | "hotspot_rows" -> Some [| d M.Y 16 sp1; d M.X 16 sp1 |]
    | "hotspot_cols" -> Some [| d M.X 16 sp1; d M.Y 16 sp1 |]
    | _ -> None
  in
  fixed dev pick app data

let mandelbrot dev app data =
  let pick = function
    | "mandel_rows" -> Some [| d M.Y 16 sp1; d M.X 16 sp1 |]
    | "mandel_cols" -> Some [| d M.X 16 sp1; d M.Y 16 sp1 |]
    | _ -> None
  in
  fixed dev pick app data

let srad dev (app : App.t) data =
  let pick = function
    | "stat_sum" | "stat_sum2" ->
      (* hand-written reductions are well tuned; use the analysis pick *)
      None
    | "srad_coef_r" | "srad_update_r" ->
      Some [| d M.Y 16 sp1; d M.X 16 sp1 |]
    | "srad_coef_c" | "srad_update_c" ->
      Some [| d M.X 16 sp1; d M.Y 16 sp1 |]
    | _ -> None
  in
  fixed dev pick app data

let bfs dev (app : App.t) data =
  let r = Runner.run_gpu ~params:app.params dev app.prog Strategy.One_d data in
  { seconds = r.seconds; data = r.data }

(* ----- helpers for hand-written kernel IR ----- *)

let ik n = Kir.Int n
let ( +: ) a b = Kir.Bin (Exp.Add, a, b)
let ( -: ) a b = Kir.Bin (Exp.Sub, a, b)
let ( *: ) a b = Kir.Bin (Exp.Mul, a, b)
let ( /: ) a b = Kir.Bin (Exp.Div, a, b)
let ( <: ) a b = Kir.Cmp (Exp.Lt, a, b)
let ( >=: ) a b = Kir.Cmp (Exp.Ge, a, b)
let ( =: ) a b = Kir.Cmp (Exp.Eq, a, b)
let ( >: ) a b = Kir.Cmp (Exp.Gt, a, b)
let andk a b = Kir.Bin (Exp.And, a, b)
let mink a b = Kir.Bin (Exp.Min, a, b)
let maxk a b = Kir.Bin (Exp.Max, a, b)
let tx = Kir.Tid Kir.X
let ty = Kir.Tid Kir.Y
let bx = Kir.Bid Kir.X
let cdiv a b = (a + b - 1) / b

(* run a list of launches against memory, accumulating simulated time *)
let run_launches dev mem launches =
  List.fold_left
    (fun acc (l : Kir.launch) ->
      let s = Interp.run dev mem l in
      acc +. Timing.kernel_seconds dev (Kir.geometry l) s)
    0. launches

let data_of mem (prog : Pat.prog) =
  List.map (fun (b : Pat.buffer) -> (b.bname, Memory.to_host mem b.bname))
    prog.buffers

(* ----- Pathfinder: iteration-fused pyramid kernel ----- *)

let pathfinder ?(pyramid = 8) dev (app : App.t) data =
  let params = App.resolved_params app in
  let rows = List.assoc "R" params and cols = List.assoc "C" params in
  let tile = 256 in
  let useful = tile - (2 * pyramid) in
  let mem = Memory.create () in
  List.iter (fun (n, b) -> ignore (Memory.load mem n b))
    (Host.alloc_all app.prog params data);
  let rb = Kir.Rb.create () in
  let reg ?(t = Ty.I32) n =
    let r = Kir.Rb.fresh rb n in
    Kir.Rb.set_type rb r t;
    r
  in
  let g = reg "g" and gc = reg "gc" in
  let k = reg "k" in
  let li = reg "li" and ri = reg "ri" in
  let lv = reg ~t:Ty.F64 "lv"
  and rv = reg ~t:Ty.F64 "rv"
  and nv = reg ~t:Ty.F64 "nv" in
  let body =
    [
      Kir.Set (g, (bx *: ik useful) -: ik pyramid +: tx);
      Kir.Set (gc, maxk (ik 0) (mink (ik (cols - 1)) (Kir.Reg g)));
      Kir.Store_s ("s0", tx, Kir.Load_g ("prev", Kir.Reg gc));
      Kir.Sync;
      Kir.For
        {
          reg = k;
          lo = ik 0;
          hi = Kir.Param "P";
          step = ik 1;
          body =
            [
              (* clamped neighbour indices: fall back to self at edges *)
              Kir.Set
                ( li,
                  Kir.Select
                    ( andk (tx >: ik 0) (Kir.Reg g >: ik 0),
                      tx -: ik 1,
                      tx ) );
              Kir.Set
                ( ri,
                  Kir.Select
                    ( andk
                        (tx <: ik (tile - 1))
                        (Kir.Reg g <: ik (cols - 1)),
                      tx +: ik 1,
                      tx ) );
              Kir.Set (lv, Kir.Load_s ("s0", Kir.Reg li));
              Kir.Set (rv, Kir.Load_s ("s0", Kir.Reg ri));
              Kir.Set
                ( nv,
                  Kir.Load_g
                    ( "wall",
                      ((Kir.Param "t0" +: Kir.Reg k) *: ik cols) +: Kir.Reg gc
                    )
                  +: mink (mink (Kir.Reg lv) (Kir.Load_s ("s0", tx)))
                       (Kir.Reg rv) );
              Kir.Store_s ("s1", tx, Kir.Reg nv);
              Kir.Sync;
              Kir.Store_s ("s0", tx, Kir.Load_s ("s1", tx));
              Kir.Sync;
            ];
        };
      Kir.If
        ( andk
            (andk (tx >=: ik pyramid) (tx <: ik (tile - pyramid)))
            (Kir.Reg g <: ik cols),
          [ Kir.Store_g ("next", Kir.Reg g, Kir.Load_s ("s0", tx)) ],
          [] );
    ]
  in
  let kernel =
    {
      Kir.kname = "pathfinder_pyramid";
      nregs = Kir.Rb.count rb;
      reg_names = Kir.Rb.names rb;
      reg_types = Kir.Rb.types rb;
      smem =
        [
          { Kir.sname = "s0"; selem = Ty.F64; selems = tile };
          { Kir.sname = "s1"; selem = Ty.F64; selems = tile };
        ];
      body;
    }
  in
  let time = ref 0. in
  let t0 = ref 0 in
  while !t0 < rows do
    let p = min pyramid (rows - !t0) in
    let launch =
      {
        Kir.kernel;
        grid = (cdiv cols useful, 1, 1);
        block = (tile, 1, 1);
        kparams = [ ("t0", !t0); ("P", p) ];
      }
    in
    time := !time +. run_launches dev mem [ launch ];
    Memory.swap mem "prev" "next";
    t0 := !t0 + p
  done;
  { seconds = !time; data = data_of mem app.prog }

(* ----- LUD: blocked diagonal / perimeter / internal kernels ----- *)

let lud ?(tile = 16) dev (app : App.t) data =
  let params = App.resolved_params app in
  let n = List.assoc "N" params in
  if n mod tile <> 0 then invalid_arg "manual lud: N must be a multiple of tile";
  let b = tile in
  let mem = Memory.create () in
  List.iter (fun (nm, bf) -> ignore (Memory.load mem nm bf))
    (Host.alloc_all app.prog params data);
  let a_at row col = (row *: ik n) +: col in
  let tb = Kir.Param "tb" in
  let make name smem mk_body =
    let rb = Kir.Rb.create () in
    let reg ?(t = Ty.I32) nm =
      let r = Kir.Rb.fresh rb nm in
      Kir.Rb.set_type rb r t;
      r
    in
    let body = mk_body reg in
    {
      Kir.kname = name;
      nregs = Kir.Rb.count rb;
      reg_names = Kir.Rb.names rb;
      reg_types = Kir.Rb.types rb;
      smem;
      body;
    }
  in
  let sm nm = { Kir.sname = nm; selem = Ty.F64; selems = b * b } in
  let lin r c = (r *: ik b) +: c in
  (* per-step k loops are unrolled in OCaml: k is a compile-time constant *)
  let diagonal =
    make "lud_diagonal" [ sm "dt" ] (fun _reg ->
        [
          Kir.Store_s ("dt", lin ty tx, Kir.Load_g ("a", a_at (tb +: ty) (tb +: tx)));
          Kir.Sync;
        ]
        @ List.concat
            (List.init b (fun k ->
                 [
                   Kir.If
                     ( andk (ty >: ik k) (tx =: ik k),
                       [
                         Kir.Store_s
                           ( "dt",
                             lin ty (ik k),
                             Kir.Load_s ("dt", lin ty (ik k))
                             /: Kir.Load_s ("dt", lin (ik k) (ik k)) );
                       ],
                       [] );
                   Kir.Sync;
                   Kir.If
                     ( andk (ty >: ik k) (tx >: ik k),
                       [
                         Kir.Store_s
                           ( "dt",
                             lin ty tx,
                             Kir.Load_s ("dt", lin ty tx)
                             -: (Kir.Load_s ("dt", lin ty (ik k))
                                 *: Kir.Load_s ("dt", lin (ik k) tx)) );
                       ],
                       [] );
                   Kir.Sync;
                 ]))
        @ [ Kir.Store_g ("a", a_at (tb +: ty) (tb +: tx), Kir.Load_s ("dt", lin ty tx)) ])
  in
  let row_perim =
    make "lud_row_perimeter" [ sm "dt"; sm "tt" ] (fun reg ->
        let off = reg "off" in
        [
          Kir.Set (off, tb +: ik b +: (bx *: ik b));
          Kir.Store_s ("dt", lin ty tx, Kir.Load_g ("a", a_at (tb +: ty) (tb +: tx)));
          Kir.Store_s
            ("tt", lin ty tx, Kir.Load_g ("a", a_at (tb +: ty) (Kir.Reg off +: tx)));
          Kir.Sync;
        ]
        @ List.concat
            (List.init b (fun k ->
                 [
                   Kir.If
                     ( ty >: ik k,
                       [
                         Kir.Store_s
                           ( "tt",
                             lin ty tx,
                             Kir.Load_s ("tt", lin ty tx)
                             -: (Kir.Load_s ("dt", lin ty (ik k))
                                 *: Kir.Load_s ("tt", lin (ik k) tx)) );
                       ],
                       [] );
                   Kir.Sync;
                 ]))
        @ [
            Kir.Store_g
              ("a", a_at (tb +: ty) (Kir.Reg off +: tx), Kir.Load_s ("tt", lin ty tx));
          ])
  in
  let col_perim =
    make "lud_col_perimeter" [ sm "dt"; sm "tt" ] (fun reg ->
        let off = reg "off" in
        [
          Kir.Set (off, tb +: ik b +: (bx *: ik b));
          Kir.Store_s ("dt", lin ty tx, Kir.Load_g ("a", a_at (tb +: ty) (tb +: tx)));
          Kir.Store_s
            ("tt", lin ty tx, Kir.Load_g ("a", a_at (Kir.Reg off +: ty) (tb +: tx)));
          Kir.Sync;
        ]
        @ List.concat
            (List.init b (fun k ->
                 [
                   Kir.If
                     ( tx =: ik k,
                       [
                         Kir.Store_s
                           ( "tt",
                             lin ty (ik k),
                             Kir.Load_s ("tt", lin ty (ik k))
                             /: Kir.Load_s ("dt", lin (ik k) (ik k)) );
                       ],
                       [] );
                   Kir.Sync;
                   Kir.If
                     ( tx >: ik k,
                       [
                         Kir.Store_s
                           ( "tt",
                             lin ty tx,
                             Kir.Load_s ("tt", lin ty tx)
                             -: (Kir.Load_s ("tt", lin ty (ik k))
                                 *: Kir.Load_s ("dt", lin (ik k) tx)) );
                       ],
                       [] );
                   Kir.Sync;
                 ]))
        @ [
            Kir.Store_g
              ("a", a_at (Kir.Reg off +: ty) (tb +: tx), Kir.Load_s ("tt", lin ty tx));
          ])
  in
  let internal =
    make "lud_internal" [ sm "cp"; sm "rp" ] (fun reg ->
        let oi = reg "oi" and oj = reg "oj" in
        let acc = reg ~t:Ty.F64 "acc" in
        let k = reg "k" in
        [
          Kir.Set (oi, tb +: ik b +: (Kir.Bid Kir.Y *: ik b));
          Kir.Set (oj, tb +: ik b +: (bx *: ik b));
          Kir.Store_s
            ("cp", lin ty tx, Kir.Load_g ("a", a_at (Kir.Reg oi +: ty) (tb +: tx)));
          Kir.Store_s
            ("rp", lin ty tx, Kir.Load_g ("a", a_at (tb +: ty) (Kir.Reg oj +: tx)));
          Kir.Sync;
          Kir.Set (acc, Kir.Load_g ("a", a_at (Kir.Reg oi +: ty) (Kir.Reg oj +: tx)));
          Kir.For
            {
              reg = k;
              lo = ik 0;
              hi = ik b;
              step = ik 1;
              body =
                [
                  Kir.Set
                    ( acc,
                      Kir.Reg acc
                      -: (Kir.Load_s ("cp", lin ty (Kir.Reg k))
                          *: Kir.Load_s ("rp", lin (Kir.Reg k) tx)) );
                ];
            };
          Kir.Store_g ("a", a_at (Kir.Reg oi +: ty) (Kir.Reg oj +: tx), Kir.Reg acc);
        ]
    )
  in
  let time = ref 0. in
  (* a partial factorisation (STEPS < n-1) must stop on a tile boundary to
     match the per-column generated version; a full run covers all tiles *)
  let lim =
    match List.assoc_opt "STEPS" params with
    | Some s when s < n - 1 ->
      if s mod b <> 0 then
        invalid_arg "manual lud: partial STEPS must be a multiple of tile";
      s
    | _ -> n
  in
  let rounds = lim / b in
  let steps = n / b in
  for s = 0 to rounds - 1 do
    let tb_v = s * b in
    let rem = steps - s - 1 in
    let kp = [ ("tb", tb_v) ] in
    let launch kernel grid =
      { Kir.kernel; grid; block = (b, b, 1); kparams = kp }
    in
    let ls =
      launch diagonal (1, 1, 1)
      ::
      (if rem > 0 then
         [
           launch row_perim (rem, 1, 1);
           launch col_perim (rem, 1, 1);
           launch internal (rem, rem, 1);
         ]
       else [])
    in
    time := !time +. run_launches dev mem ls
  done;
  { seconds = !time; data = data_of mem app.prog }
