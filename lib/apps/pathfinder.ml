open Ppat_ir
open Exp.Infix

let app ?(rows = 64) ?(cols = 16384) () =
  let b = Builder.create () in
  let top =
    Builder.foreach b ~label:"pathfinder_step" ~size:(Pat.Sparam "C")
      (fun j ->
        let left = read "prev" [ max_ (i 0) (j - i 1) ] in
        let mid = read "prev" [ j ] in
        let right = read "prev" [ min_ (p "CM1") (j + i 1) ] in
        [
          Pat.Store
            ( "next",
              [ j ],
              read "wall" [ p "t"; j ] + min_ (min_ left mid) right );
        ])
  in
  let prog =
    {
      Pat.pname = "pathfinder";
      defaults = [ ("R", rows); ("C", cols); ("CM1", Stdlib.( - ) cols 1) ];
      buffers =
        [
          Pat.buffer "wall" Ty.F64 [ Ty.Param "R"; Ty.Param "C" ] Pat.Input;
          Pat.buffer "prev" Ty.F64 [ Ty.Param "C" ] Pat.Input;
          Pat.buffer "next" Ty.F64 [ Ty.Param "C" ] Pat.Output;
        ];
      steps =
        [
          Pat.Host_loop
            {
              var = "t";
              count = Ty.Param "R";
              body =
                [
                  Pat.Launch { bind = None; pat = top };
                  Pat.Swap ("prev", "next");
                ];
            };
        ];
    }
  in
  App.make ~name:"Pathfinder"
    ~param_rules:(fun env -> Ok [ ("CM1", Stdlib.( - ) (List.assoc "C" env) 1) ])
    ~gen:(fun params ->
      let r = List.assoc "R" params and c = List.assoc "C" params in
      [
        ("wall", Host.F (Workloads.farray ~lo:1. ~hi:10. ~seed:41 (Stdlib.( * ) r c)));
        ("prev", Host.F (Array.make c 0.));
      ])
    prog
