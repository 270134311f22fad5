open Ppat_ir
open Exp.Infix

type order = R | C

let fan2_cell ii jj =
  (* update a[t+1+ii, t+jj] and, once per row, the right-hand side *)
  [
    Pat.Store
      ( "a",
        [ p "t" + i 1 + ii; p "t" + jj ],
        read "a" [ p "t" + i 1 + ii; p "t" + jj ]
        - (read "mult" [ ii ] * read "a" [ p "t"; p "t" + jj ]) );
    Pat.If
      ( jj = i 0,
        [
          Pat.Store
            ( "rhs",
              [ p "t" + i 1 + ii ],
              read "rhs" [ p "t" + i 1 + ii ]
              - (read "mult" [ ii ] * read "rhs" [ p "t" ]) );
        ],
        [] );
  ]

let app ?(n = 512) ?steps order =
  let b = Builder.create () in
  let rem = Pat.Sexp (p "N" - p "t" - i 1) in
  let cols = Pat.Sexp (p "N" - p "t") in
  let fan1 =
    Builder.map b ~label:"fan1" ~size:rem (fun ii ->
        ([], read "a" [ p "t" + i 1 + ii; p "t" ] / read "a" [ p "t"; p "t" ]))
  in
  let fan2 =
    match order with
    | R ->
      Builder.foreach b ~label:"fan2_r" ~size:rem (fun ii ->
          [
            Builder.nest
              (Builder.foreach b ~label:"cols" ~size:cols (fun jj ->
                   fan2_cell ii jj));
          ])
    | C ->
      Builder.foreach b ~label:"fan2_c" ~size:cols (fun jj ->
          [
            Builder.nest
              (Builder.foreach b ~label:"rows" ~size:rem (fun ii ->
                   fan2_cell ii jj));
          ])
  in
  let prog =
    {
      Pat.pname = (match order with R -> "gaussian_r" | C -> "gaussian_c");
      defaults =
        [
          ("N", n);
          ( "STEPS",
            match steps with
            | Some s -> min s (Stdlib.( - ) n 1)
            | None -> Stdlib.( - ) n 1 );
        ];
      buffers =
        [
          Pat.buffer "a" Ty.F64 [ Ty.Param "N"; Ty.Param "N" ] Pat.Input;
          Pat.buffer "rhs" Ty.F64 [ Ty.Param "N" ] Pat.Input;
          Pat.buffer "mult" Ty.F64 [ Ty.Param "N" ] Pat.Output;
        ];
      steps =
        [
          Pat.Host_loop
            {
              var = "t";
              count = Ty.Param "STEPS";
              body =
                [
                  Pat.Launch { bind = Some "mult"; pat = fan1 };
                  Pat.Launch { bind = None; pat = fan2 };
                ];
            };
        ];
    }
  in
  App.make
    ~name:(match order with R -> "Gaussian (R)" | C -> "Gaussian (C)")
    ~eps:1e-5
    ~param_rules:Workloads.steps_below_n
    ~gen:(fun params ->
      let n = List.assoc "N" params in
      [
        ("a", Host.F (Workloads.spd_matrix ~seed:51 n));
        ("rhs", Host.F (Workloads.farray ~seed:52 n));
      ])
    prog
