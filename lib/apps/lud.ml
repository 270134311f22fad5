open Ppat_ir
open Exp.Infix

type order = R | C

let update_cell ii jj =
  [
    Pat.Store
      ( "a",
        [ p "t" + i 1 + ii; p "t" + i 1 + jj ],
        read "a" [ p "t" + i 1 + ii; p "t" + i 1 + jj ]
        - (read "a" [ p "t" + i 1 + ii; p "t" ]
           * read "a" [ p "t"; p "t" + i 1 + jj ]) );
  ]

let app ?(n = 512) ?steps order =
  let b = Builder.create () in
  let rem = Pat.Sexp (p "N" - p "t" - i 1) in
  let scale =
    Builder.foreach b ~label:"lud_scale" ~size:rem (fun ii ->
        [
          Pat.Store
            ( "a",
              [ p "t" + i 1 + ii; p "t" ],
              read "a" [ p "t" + i 1 + ii; p "t" ]
              / read "a" [ p "t"; p "t" ] );
        ])
  in
  let update =
    match order with
    | R ->
      Builder.foreach b ~label:"lud_update_r" ~size:rem (fun ii ->
          [
            Builder.nest
              (Builder.foreach b ~label:"cols" ~size:rem (fun jj ->
                   update_cell ii jj));
          ])
    | C ->
      Builder.foreach b ~label:"lud_update_c" ~size:rem (fun jj ->
          [
            Builder.nest
              (Builder.foreach b ~label:"rows" ~size:rem (fun ii ->
                   update_cell ii jj));
          ])
  in
  let prog =
    {
      Pat.pname = (match order with R -> "lud_r" | C -> "lud_c");
      defaults =
        [
          ("N", n);
          ( "STEPS",
            match steps with
            | Some s -> min s (Stdlib.( - ) n 1)
            | None -> Stdlib.( - ) n 1 );
        ];
      buffers =
        [ Pat.buffer "a" Ty.F64 [ Ty.Param "N"; Ty.Param "N" ] Pat.Input ];
      steps =
        [
          Pat.Host_loop
            {
              var = "t";
              count = Ty.Param "STEPS";
              body =
                [
                  Pat.Launch { bind = None; pat = scale };
                  Pat.Launch { bind = None; pat = update };
                ];
            };
        ];
    }
  in
  App.make
    ~name:(match order with R -> "LUD (R)" | C -> "LUD (C)")
    ~eps:1e-4
    ~param_rules:Workloads.steps_below_n
    ~gen:(fun params ->
      let n = List.assoc "N" params in
      [ ("a", Host.F (Workloads.spd_matrix ~seed:71 n)) ])
    prog
