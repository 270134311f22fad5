open Ppat_ir
open Exp.Infix

let damp = 0.85

let app ?(nodes = 8192) ?(avg_degree = 8) ?(iters = 3) () =
  let b = Builder.create () in
  let top =
    (* nodes map { n => sumWeights = nbrs reduce ...; (1-d)/N + d*sum } *)
    Builder.map b ~label:"pagerank" ~size:(Pat.Sparam "NODES") (fun n ->
        let deg = read "row_ptr" [ n + i 1 ] - read "row_ptr" [ n ] in
        let sum_weights =
          Builder.reduce b ~label:"nbr_weights" ~size:(Pat.Sdyn deg) (fun e ->
              let w = read "cols" [ read "row_ptr" [ n ] + e ] in
              ( [ Pat.Let ("w", w) ],
                read "pr" [ v "w" ]
                / max_ (f 1.) (i2f (read "out_deg" [ v "w" ])) ))
        in
        ( [ Builder.bind "sumWeights" sum_weights ],
          (f (1. -. damp) / i2f (p "NODES")) + (f damp * v "sumWeights") ))
  in
  let prog =
    {
      Pat.pname = "pagerank";
      defaults =
        [
          ("NODES", nodes);
          ("EDGES", Stdlib.( * ) nodes avg_degree);
          ("ITERS", iters);
          ("HINT_nbr_weights", avg_degree);
        ];
      buffers =
        [
          Pat.buffer "row_ptr" Ty.I32 [ Ty.Const (Stdlib.( + ) nodes 1) ]
            Pat.Input;
          Pat.buffer "cols" Ty.I32 [ Ty.Param "EDGES" ] Pat.Input;
          Pat.buffer "out_deg" Ty.I32 [ Ty.Param "NODES" ] Pat.Input;
          Pat.buffer "pr" Ty.F64 [ Ty.Param "NODES" ] Pat.Input;
          Pat.buffer "pr_next" Ty.F64 [ Ty.Param "NODES" ] Pat.Output;
        ];
      steps =
        [
          Pat.Host_loop
            {
              var = "iter";
              count = Ty.Param "ITERS";
              body =
                [
                  Pat.Launch { bind = Some "pr_next"; pat = top };
                  Pat.Swap ("pr", "pr_next");
                ];
            };
        ];
    }
  in
  App.make ~name:"PageRank"
    ~param_rules:(Workloads.fixed_nodes nodes)
    ~gen:(fun params ->
      let n = List.assoc "NODES" params in
      let edges = List.assoc "EDGES" params in
      let row_ptr, cols =
        Workloads.csr_graph ~seed:121 ~nodes:n ~avg_degree
      in
      let m = row_ptr.(n) in
      let cols' = Array.make edges 0 in
      Array.blit cols 0 cols' 0 (min m edges);
      let row_ptr' = Array.map (fun x -> min x edges) row_ptr in
      let out_deg = Array.make n 0 in
      Array.iter (fun c -> out_deg.(c) <- Stdlib.( + ) out_deg.(c) 1) cols';
      [
        ("row_ptr", Host.I row_ptr');
        ("cols", Host.I cols');
        ("out_deg", Host.I out_deg);
        ("pr", Host.F (Array.make n (1. /. float_of_int n)));
      ])
    prog
