open Ppat_ir
open Exp.Infix

type order = R | C

(* clamped neighbour read *)
let at r c = read "t_in" [ max_ (i 0) (min_ (p "NM1") r); max_ (i 0) (min_ (p "NM1") c) ]

let cell_body r c =
  [
    Pat.Let ("center", read "t_in" [ r; c ]);
    Pat.Let ("acc",
             at (r - i 1) c + at (r + i 1) c + at r (c - i 1) + at r (c + i 1)
             - (f 4. * v "center"));
    Pat.Store
      ( "t_out",
        [ r; c ],
        v "center" + (f 0.2 * v "acc") + (f 0.05 * read "power" [ r; c ]) );
  ]

let app ?(n = 512) ?(steps = 4) order =
  let b = Builder.create () in
  let top =
    match order with
    | R ->
      Builder.foreach b ~label:"hotspot_rows" ~size:(Pat.Sparam "N") (fun r ->
          [
            Builder.nest
              (Builder.foreach b ~label:"cols" ~size:(Pat.Sparam "N")
                 (fun c -> cell_body r c));
          ])
    | C ->
      Builder.foreach b ~label:"hotspot_cols" ~size:(Pat.Sparam "N") (fun c ->
          [
            Builder.nest
              (Builder.foreach b ~label:"rows" ~size:(Pat.Sparam "N")
                 (fun r -> cell_body r c));
          ])
  in
  let prog =
    {
      Pat.pname = (match order with R -> "hotspot_r" | C -> "hotspot_c");
      defaults = [ ("N", n); ("NM1", Stdlib.( - ) n 1); ("STEPS", steps) ];
      buffers =
        [
          Pat.buffer "t_in" Ty.F64 [ Ty.Param "N"; Ty.Param "N" ] Pat.Input;
          Pat.buffer "power" Ty.F64 [ Ty.Param "N"; Ty.Param "N" ] Pat.Input;
          Pat.buffer "t_out" Ty.F64 [ Ty.Param "N"; Ty.Param "N" ] Pat.Output;
        ];
      steps =
        [
          Pat.Host_loop
            {
              var = "step";
              count = Ty.Param "STEPS";
              body =
                [
                  Pat.Launch { bind = None; pat = top };
                  Pat.Swap ("t_in", "t_out");
                ];
            };
        ];
    }
  in
  App.make
    ~name:(match order with R -> "Hotspot (R)" | C -> "Hotspot (C)")
    ~param_rules:(fun env -> Ok [ ("NM1", Stdlib.( - ) (List.assoc "N" env) 1) ])
    ~gen:(fun params ->
      let n = List.assoc "N" params in
      [
        ("t_in", Host.F (Workloads.farray ~lo:300. ~hi:340. ~seed:31 (Stdlib.( * ) n n)));
        ("power", Host.F (Workloads.farray ~lo:0. ~hi:1. ~seed:32 (Stdlib.( * ) n n)));
      ])
    prog
