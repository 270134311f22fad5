open Ppat_ir
open Exp.Infix

(* [samples] coordinates are visited per sweep, out of the [dim]
   coordinates of the QP (samples <= dim) *)
let app ?(samples = 2048) ?(dim = 2048) () =
  if Stdlib.( > ) samples dim then invalid_arg "qpscd: samples > dim";
  let b = Builder.create () in
  (* one HogWild sweep: for each (randomly permuted) row r, compute the
     gradient of coordinate r and write the projected update *)
  let top =
    Builder.foreach b ~label:"qpscd_sweep" ~size:(Pat.Sparam "S") (fun s ->
        let dot =
          Builder.reduce b ~label:"row_dot" ~size:(Pat.Sparam "K") (fun j ->
              ([], read "qmat" [ v "r"; j ] * read "x" [ j ]))
        in
        [
          Pat.Let ("r", read "perm" [ s ]);
          Builder.bind "dot" dot;
          Pat.Let ("grad", v "dot" - read "rhs" [ v "r" ]);
          Pat.Let
            ( "step",
              v "grad" / max_ (f 1e-9) (read "qmat" [ v "r"; v "r" ]) );
          (* box projection of the updated coordinate into [0, 1] *)
          Pat.Store
            ( "xnew",
              [ v "r" ],
              max_ (f 0.) (min_ (f 1.) (read "x" [ v "r" ] - v "step")) );
        ])
  in
  let prog =
    {
      Pat.pname = "qpscd";
      defaults = [ ("S", samples); ("K", dim) ];
      buffers =
        [
          Pat.buffer "qmat" Ty.F64 [ Ty.Param "K"; Ty.Param "K" ] Pat.Input;
          Pat.buffer "x" Ty.F64 [ Ty.Param "K" ] Pat.Input;
          Pat.buffer "rhs" Ty.F64 [ Ty.Param "K" ] Pat.Input;
          Pat.buffer "perm" Ty.I32 [ Ty.Param "K" ] Pat.Input;
          Pat.buffer "xnew" Ty.F64 [ Ty.Param "K" ] Pat.Output;
        ];
      steps = [ Pat.Launch { bind = None; pat = top } ];
    }
  in
  App.make ~name:"QPSCD HogWild"
    ~param_rules:(fun env ->
      let s = List.assoc "S" env and k = List.assoc "K" env in
      if Stdlib.( > ) s k then
        Error (Printf.sprintf "parameter \"S\" (%d) must not exceed \"K\" (%d)" s k)
      else Ok [])
    ~gen:(fun params ->
      let k = List.assoc "K" params in
      [
        ("qmat", Host.F (Workloads.farray ~seed:91 (Stdlib.( * ) k k)));
        ("x", Host.F (Workloads.farray ~seed:92 k));
        ("rhs", Host.F (Workloads.farray ~seed:93 k));
        ("perm", Host.I (Workloads.permutation ~seed:94 k));
      ])
    prog
