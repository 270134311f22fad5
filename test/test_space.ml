(* Lowering checked over whole mapping spaces, not only the searched
   picks: every candidate of each registry app's target space, at
   registry size, with shuffle synthesis off and on, either lowers or
   raises Unsupported (a pinned count); every lowered kernel validates,
   passes the race checker and prints as CUDA. The number of distinct
   shape keys per space is pinned too: it is the grouping the sweep
   reports (Fig 17), so a shape-key change that merges or splits groups
   fails here by name. The race checker runs on the full space of every
   app but gemm and msm_cluster, whose spaces are strided: together they
   cost about 19.6 s of the 21 s a full check takes. *)
module A = Ppat_apps
module Runner = Ppat_harness.Runner
module Lower = Ppat_codegen.Lower
module Kir = Ppat_kernel.Kir
module Race = Ppat_check.Race

let dev = Ppat_gpu.Device.k20c

(* app, candidates, Unsupported, distinct shape keys, race-check stride;
   identical with shuffle off and on *)
let spaces =
  [
    ("sum_rows", 264, 0, 84, 1);
    ("sum_cols", 264, 0, 98, 1);
    ("sum_weighted_rows", 264, 0, 84, 1);
    ("sum_weighted_cols", 264, 0, 84, 1);
    ("nearest_neighbor", 22, 0, 4, 1);
    ("gaussian", 528, 0, 64, 1);
    ("gaussian_c", 528, 0, 64, 1);
    ("bfs", 264, 0, 9, 1);
    ("hotspot", 528, 0, 80, 1);
    ("hotspot_c", 528, 0, 80, 1);
    ("mandelbrot", 528, 0, 80, 1);
    ("mandelbrot_c", 528, 0, 80, 1);
    ("srad", 528, 0, 80, 1);
    ("srad_c", 528, 0, 80, 1);
    ("pathfinder", 22, 0, 4, 1);
    ("lud", 528, 0, 88, 1);
    ("pagerank", 264, 0, 84, 1);
    ("qpscd", 264, 0, 86, 1);
    ("msm_cluster", 3432, 0, 1452, 16);
    ("naive_bayes", 264, 0, 86, 1);
    ("gemm", 6864, 0, 1368, 16);
    ("fig8", 528, 0, 40, 1);
  ]

let check_space ~shuffle (name, candidates, unsupported, shapes, stride) =
  let app = Option.get (A.Registry.find name) in
  let opts = { Lower.default_options with Lower.shuffle } in
  let ts = Runner.target_space ~params:app.params dev app.prog in
  let ap = Runner.analysis_params app.prog app.params in
  let where m =
    Printf.sprintf "%s (shuffle=%b) %s" name shuffle
      (Ppat_core.Mapping.to_string m)
  in
  let keys = Hashtbl.create 256 and raised = ref 0 in
  Array.iteri
    (fun i m ->
      match Lower.lower dev ~opts ~params:ap app.prog ts.ts_target m with
      | exception Lower.Unsupported _ -> incr raised
      | l ->
        Hashtbl.replace keys (Lower.shape_key l) ();
        List.iter
          (fun (k : Kir.launch) ->
            (match Kir.validate k.kernel with
             | Ok () -> ()
             | Error e ->
               Alcotest.failf "%s: %s invalid: %s" (where m) k.kernel.kname e);
            if i mod stride = 0 then begin
              let rep = Race.check ~warp_size:dev.Ppat_gpu.Device.warp_size k in
              if not (Race.clean rep) then
                Alcotest.failf "%s: %s: %s" (where m) k.kernel.kname
                  (Format.asprintf "%a" Race.pp_report rep)
            end;
            if Ppat_codegen.Cuda_emit.kernel ~prog:app.prog k.kernel = "" then
              Alcotest.failf "%s: %s printed no CUDA" (where m) k.kernel.kname)
          l.launches)
    ts.ts_candidates;
  let label what = Printf.sprintf "%s (shuffle=%b): %s" name shuffle what in
  Alcotest.(check int) (label "candidates") candidates
    (Array.length ts.ts_candidates);
  Alcotest.(check int) (label "Unsupported") unsupported !raised;
  Alcotest.(check int) (label "distinct shape keys") shapes
    (Hashtbl.length keys)

(* every shape string `ppat mapspace sum_rows [--shuffle] --json` can
   print is a key of this space: an MD5 over its sorted distinct keys pins
   them, so an encoding change shows here even where the grouping above
   holds *)
let sum_rows_shapes =
  [
    (false, "79c4a4a8384598a7fed984cfd8e12a6e");
    (true, "0d6cd705b6321964a5407324dc0918ba");
  ]

let test_shape_strings () =
  let app = Option.get (A.Registry.find "sum_rows") in
  let ts = Runner.target_space ~params:app.params dev app.prog in
  let ap = Runner.analysis_params app.prog app.params in
  List.iter
    (fun (shuffle, want) ->
      let opts = { Lower.default_options with Lower.shuffle } in
      let key m =
        Lower.shape_key
          (Lower.lower dev ~opts ~params:ap app.prog ts.ts_target m)
      in
      let keys =
        List.sort_uniq compare (List.map key (Array.to_list ts.ts_candidates))
      in
      Alcotest.(check string)
        (Printf.sprintf "sum_rows (shuffle=%b): sorted shape strings" shuffle)
        want
        (Digest.to_hex (Digest.string (String.concat "\n" keys))))
    sum_rows_shapes

let tests =
  Alcotest.test_case "sum_rows shape strings" `Quick test_shape_strings
  :: List.map
    (fun shuffle ->
      Alcotest.test_case
        (Printf.sprintf "every candidate lowers cleanly, shuffle %s"
           (if shuffle then "on" else "off"))
        `Quick
        (fun () -> List.iter (check_space ~shuffle) spaces))
    [ false; true ]
