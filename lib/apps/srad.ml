open Ppat_ir
open Exp.Infix

type order = R | C

let clamp lo hi x = max_ lo (min_ hi x)

(* flat index of (r, c) in the N x N image *)
let fl r c = (r * p "N") + c

let jat r c = read "image" [ fl (clamp (i 0) (p "NM1") r) (clamp (i 0) (p "NM1") c) ]

let coef_cell r c =
  [
    Pat.Let ("jc", read "image" [ fl r c ]);
    Pat.Let ("dN", jat (r - i 1) c - v "jc");
    Pat.Let ("dS", jat (r + i 1) c - v "jc");
    Pat.Let ("dW", jat r (c - i 1) - v "jc");
    Pat.Let ("dE", jat r (c + i 1) - v "jc");
    Pat.Let
      ( "g2",
        ((v "dN" * v "dN") + (v "dS" * v "dS") + (v "dW" * v "dW")
         + (v "dE" * v "dE"))
        / (v "jc" * v "jc") );
    Pat.Let ("l", (v "dN" + v "dS" + v "dW" + v "dE") / v "jc");
    Pat.Let ("num", (f 0.5 * v "g2") - (f 0.0625 * v "l" * v "l"));
    Pat.Let ("den", f 1. + (f 0.25 * v "l"));
    Pat.Let ("qsqr", v "num" / (v "den" * v "den"));
    Pat.Let ("mean", read "sumj" [ i 0 ] / i2f (p "N2"));
    Pat.Let
      ("varj", (read "sumj2" [ i 0 ] / i2f (p "N2")) - (v "mean" * v "mean"));
    Pat.Let ("q0sqr", v "varj" / (v "mean" * v "mean"));
    Pat.Let
      ( "cval",
        f 1.
        / (f 1. + ((v "qsqr" - v "q0sqr") / (v "q0sqr" * (f 1. + v "q0sqr"))))
      );
    Pat.Store ("coef", [ fl r c ], max_ (f 0.) (min_ (f 1.) (v "cval")));
  ]

let cat r c = read "coef" [ fl (clamp (i 0) (p "NM1") r) (clamp (i 0) (p "NM1") c) ]

let update_cell r c =
  [
    Pat.Let ("jc", read "image" [ fl r c ]);
    Pat.Let ("dN", jat (r - i 1) c - v "jc");
    Pat.Let ("dS", jat (r + i 1) c - v "jc");
    Pat.Let ("dW", jat r (c - i 1) - v "jc");
    Pat.Let ("dE", jat r (c + i 1) - v "jc");
    Pat.Let
      ( "div",
        (cat (r + i 1) c * v "dS") + (cat r c * v "dN")
        + (cat r (c + i 1) * v "dE") + (cat r c * v "dW") );
    Pat.Store ("next", [ fl r c ], v "jc" + (f 0.125 * v "div"));
  ]

let nest2 b label order cell =
  match order with
  | R ->
    Builder.foreach b ~label:(label ^ "_r") ~size:(Pat.Sparam "N") (fun r ->
        [
          Builder.nest
            (Builder.foreach b ~label:"cols" ~size:(Pat.Sparam "N") (fun c ->
                 cell r c));
        ])
  | C ->
    Builder.foreach b ~label:(label ^ "_c") ~size:(Pat.Sparam "N") (fun c ->
        [
          Builder.nest
            (Builder.foreach b ~label:"rows" ~size:(Pat.Sparam "N") (fun r ->
                 cell r c));
        ])

let app ?(n = 256) ?(iters = 2) order =
  let b = Builder.create () in
  let sumj =
    Builder.reduce b ~label:"stat_sum" ~size:(Pat.Sparam "N2") (fun k ->
        ([], read "image" [ k ]))
  in
  let sumj2 =
    Builder.reduce b ~label:"stat_sum2" ~size:(Pat.Sparam "N2") (fun k ->
        ([], read "image" [ k ] * read "image" [ k ]))
  in
  let coef = nest2 b "srad_coef" order coef_cell in
  let update = nest2 b "srad_update" order update_cell in
  let prog =
    {
      Pat.pname = (match order with R -> "srad_r" | C -> "srad_c");
      defaults =
        [
          ("N", n);
          ("NM1", Stdlib.( - ) n 1);
          ("N2", Stdlib.( * ) n n);
          ("ITERS", iters);
        ];
      buffers =
        [
          Pat.buffer "image" Ty.F64 [ Ty.Param "N2" ] Pat.Input;
          Pat.buffer "coef" Ty.F64 [ Ty.Param "N2" ] Pat.Temp;
          Pat.buffer "next" Ty.F64 [ Ty.Param "N2" ] Pat.Temp;
          Pat.buffer "sumj" Ty.F64 [ Ty.Const 1 ] Pat.Temp;
          Pat.buffer "sumj2" Ty.F64 [ Ty.Const 1 ] Pat.Temp;
        ];
      steps =
        [
          Pat.Host_loop
            {
              var = "iter";
              count = Ty.Param "ITERS";
              body =
                [
                  Pat.Launch { bind = Some "sumj"; pat = sumj };
                  Pat.Launch { bind = Some "sumj2"; pat = sumj2 };
                  Pat.Launch { bind = None; pat = coef };
                  Pat.Launch { bind = None; pat = update };
                  Pat.Swap ("image", "next");
                ];
            };
        ];
    }
  in
  App.make
    ~name:(match order with R -> "Srad (R)" | C -> "Srad (C)")
    ~eps:1e-5
    ~param_rules:(fun env ->
      let n = List.assoc "N" env in
      Ok [ ("NM1", Stdlib.( - ) n 1); ("N2", Stdlib.( * ) n n) ])
    ~gen:(fun params ->
      let n2 = List.assoc "N2" params in
      [ ("image", Host.F (Workloads.farray ~lo:1. ~hi:2. ~seed:61 n2)) ])
    prog
