open Ppat_ir
open Exp.Infix

let app ?(nodes = 16384) ?(avg_degree = 8) () =
  let b = Builder.create () in
  let step =
    Builder.foreach b ~label:"bfs_step" ~size:(Pat.Sparam "NODES") (fun node ->
        let deg = read "row_ptr" [ node + i 1 ] - read "row_ptr" [ node ] in
        [
          Pat.If
            ( read "cost" [ node ] = read "lvl" [ i 0 ],
              [
                Builder.nest
                  (Builder.foreach b ~label:"nbrs" ~size:(Pat.Sdyn deg)
                     (fun e ->
                       [
                         Pat.Let
                           ("nbr", read "cols" [ read "row_ptr" [ node ] + e ]);
                         Pat.If
                           ( read "cost" [ v "nbr" ] < i 0,
                             [
                               Pat.Store
                                 ("cost", [ v "nbr" ], read "lvl" [ i 0 ] + i 1);
                               Pat.Store ("flag", [ i 0 ], i 1);
                             ],
                             [] );
                       ]));
              ],
              [] );
        ])
  in
  let bump =
    Builder.foreach b ~label:"bfs_bump" ~size:(Pat.Sconst 1) (fun _ ->
        [ Pat.Store ("lvl", [ i 0 ], read "lvl" [ i 0 ] + i 1) ])
  in
  let prog =
    {
      Pat.pname = "bfs";
      defaults =
        [
          ("NODES", nodes);
          ("EDGES", Stdlib.( * ) nodes avg_degree);
          (* size hint for the dynamically-sized neighbour level *)
          ("HINT_nbrs", avg_degree);
        ];
      buffers =
        [
          Pat.buffer "row_ptr" Ty.I32 [ Ty.Const (Stdlib.( + ) nodes 1) ] Pat.Input;
          Pat.buffer "cols" Ty.I32 [ Ty.Param "EDGES" ] Pat.Input;
          Pat.buffer "cost" Ty.I32 [ Ty.Param "NODES" ] Pat.Input;
          Pat.buffer "lvl" Ty.I32 [ Ty.Const 1 ] Pat.Temp;
          Pat.buffer "flag" Ty.I32 [ Ty.Const 1 ] Pat.Temp;
        ];
      steps =
        [
          Pat.While_flag
            {
              flag = "flag";
              max_iter = 64;
              body =
                [
                  Pat.Launch { bind = None; pat = step };
                  Pat.Launch { bind = None; pat = bump };
                ];
            };
        ];
    }
  in
  App.make ~name:"BFS"
    ~param_rules:(Workloads.fixed_nodes nodes)
    ~gen:(fun params ->
      let n = List.assoc "NODES" params in
      let edges = List.assoc "EDGES" params in
      let row_ptr, cols = Workloads.csr_graph ~seed:81 ~nodes:n ~avg_degree in
      (* pad/trim the edge list to the declared extent *)
      let m = row_ptr.(n) in
      let cols' = Array.make edges 0 in
      Array.blit cols 0 cols' 0 (min m edges);
      let row_ptr' = Array.map (fun x -> min x edges) row_ptr in
      let cost = Array.make n (-1) in
      cost.(0) <- 0;
      [
        ("row_ptr", Host.I row_ptr');
        ("cols", Host.I cols');
        ("cost", Host.I cost);
      ])
    prog
