(* DESIGN.md's "Expected shapes" as a gate: the typed tables of Figures 3,
   16 and 17 at the figures' own sizes, under whatever cost model and
   simulator job count the environment selects. A missing row or cell
   fails. *)

module E = Ppat_apps.Experiments

let dev = Ppat_gpu.Device.k20c

let cell (t : E.table) row variant =
  match List.find_opt (fun (r : E.row) -> r.rlabel = row) t.rows with
  | None -> Alcotest.failf "%s: no row %S" t.title row
  | Some r -> (
    match List.find_opt (fun (c : E.cell) -> c.variant = variant) r.cells with
    | Some c -> c.seconds
    | None -> Alcotest.failf "%s: row %S has no %S cell" t.title row variant)

let validates (t : E.table) =
  List.iter
    (fun (row, variant) ->
      Alcotest.failf "%s: row %S, %S failed validation" t.title row variant)
    (E.failures t)

let at_least what bound x =
  Alcotest.(check bool) (Printf.sprintf "%s: %.2f >= %.2f" what x bound) true
    (x >= bound)

let at_most what bound x =
  Alcotest.(check bool) (Printf.sprintf "%s: %.2f <= %.2f" what x bound) true
    (x <= bound)

let test_fig3 () =
  let t = E.fig3 dev in
  validates t;
  let label app (r, c) = Printf.sprintf "%s [%d,%d]" app r c in
  let shapes = [ (8192, 64); (1024, 512); (64, 8192) ] in
  let rows =
    List.concat_map (fun s -> [ label "sumCols" s; label "sumRows" s ]) shapes
  in
  let ratio row v = cell t row v /. cell t row "MultiDim" in
  (* MultiDim flat across shapes *)
  let md = List.map (fun row -> cell t row "MultiDim") rows in
  at_most "MultiDim slowest / fastest shape" 1.6
    (List.fold_left Float.max 0. md /. List.fold_left Float.min infinity md);
  (* 1D collapses on tall sumCols and on every sumRows *)
  List.iter
    (fun row -> at_least (row ^ " 1D") 3. (ratio row "1D"))
    ("sumCols [8192,64]" :: List.map (label "sumRows") shapes);
  (* thread-block/thread and warp-based are uncoalesced on every sumCols *)
  List.iter
    (fun s ->
      let row = label "sumCols" s in
      at_least (row ^ " ThreadBlock/Thread") 3.
        (ratio row "ThreadBlock/Thread");
      at_least (row ^ " Warp-based") 3. (ratio row "Warp-based"))
    shapes;
  (* warp-based matches MultiDim on sumRows with enough rows to fill the
     device *)
  List.iter
    (fun s ->
      let row = label "sumRows" s in
      at_most (row ^ " Warp-based") 1.25 (ratio row "Warp-based"))
    [ (8192, 64); (1024, 512) ];
  (* worst-case gaps in the tens *)
  at_least "worst fixed strategy" 10.
    (List.fold_left Float.max 0.
       (List.concat_map
          (fun row ->
            List.map (ratio row) [ "1D"; "ThreadBlock/Thread"; "Warp-based" ])
          rows))

let test_fig16 () =
  let t = E.fig16 dev in
  validates t;
  List.iter
    (fun row ->
      at_least (row ^ " Malloc / Prealloc") 4.
        (cell t row "Malloc" /. cell t row "Prealloc"))
    [ "sumWeightedRows"; "sumWeightedCols" ];
  at_least "sumWeightedCols Prealloc / Prealloc+layout" 3.
    (cell t "sumWeightedCols" "Prealloc"
    /. cell t "sumWeightedCols" "Prealloc+layout");
  let rows = cell t "sumWeightedRows" "Prealloc+layout"
  and cols = cell t "sumWeightedCols" "Prealloc+layout" in
  at_most "Prealloc+layout rows vs cols" 1.25
    (Float.max rows cols /. Float.min rows cols)

let test_fig17 () =
  let t = E.fig17 ~jobs:1 dev in
  (* every sampled mapping simulated and matched the oracle *)
  validates t;
  at_least "sampled mappings" 12. (float_of_int (List.length t.rows - 1));
  let best = cell t "summary" "best sampled mapping" in
  (* the cell is there only when the sample holds soft's pick *)
  ignore (cell t "summary" "soft pick");
  at_most "MultiDim pick / best" 1.25 (cell t "summary" "MultiDim pick" /. best);
  at_least "Warp-based / best" 3.
    (cell t "summary" "Warp-based (region B)" /. best)

let tests =
  [
    Alcotest.test_case "fig3 shapes" `Slow test_fig3;
    Alcotest.test_case "fig16 shapes" `Slow test_fig16;
    Alcotest.test_case "fig17 shapes" `Slow test_fig17;
  ]
