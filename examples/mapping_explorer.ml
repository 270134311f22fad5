(* Mapping-space explorer — interactive version of paper Figure 17.

   Ranks the hard-feasible mappings of a skewed Mandelbrot rendering under
   every cost model, simulates each model's top-6 plus a strided sample,
   and prints (soft score, mapping, simulated time) so the
   score/performance correlation — and its false negatives — can be
   inspected. Also shows where the automatic pick and the warp-based
   preset land.

   Run with: dune exec examples/mapping_explorer.exe *)

module E = Ppat_apps.Experiments

let () =
  let table =
    E.fig17 ~jobs:(Ppat_parallel.default_jobs ()) Ppat_gpu.Device.k20c
  in
  E.print_table Format.std_formatter table;
  (* the summary row leads with the best sampled time; sampled mappings
     follow by descending soft score *)
  match table.rows with
  | { cells = best :: _; _ } :: { rlabel; cells = [ top ] } :: _ ->
    Format.printf
      "@.best sampled time %.4g s; the top-scored mapping (%s) runs in \
       %.4g s (%.2fx of best)@."
      best.seconds rlabel top.seconds
      (top.seconds /. best.seconds)
  | _ -> ()
