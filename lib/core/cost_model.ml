type kind = Soft | Analytical | Hybrid

let name = function
  | Soft -> "soft"
  | Analytical -> "analytical"
  | Hybrid -> "hybrid"

let of_string = function
  | "soft" -> Ok Soft
  | "analytical" -> Ok Analytical
  | "hybrid" -> Ok Hybrid
  | s ->
    Error (Printf.sprintf "unknown cost model %S (soft|analytical|hybrid)" s)

(* fail fast on a malformed value: a typo used to fall back silently to
   Soft, which is indistinguishable from the knob working *)
let default () =
  match
    Ppat_gpu.Tuning.env "PPAT_COST_MODEL" (fun ~name s ->
        match of_string s with
        | Ok k -> Ok k
        | Error e -> Error (Printf.sprintf "%s: %s" name e))
  with
  | Some k -> k
  | None -> Soft

let all = [ Soft; Analytical; Hybrid ]

type eval = {
  soft_score : float;
  predicted : Predict.t option;
  key : float array;
}

(* the historical tie-break: blocks near 256 threads are large enough to
   fill an SM with few blocks, small enough to spread across SMs *)
let block_proximity m =
  let tpb = Mapping.threads_per_block m in
  abs (int_of_float (Float.round (Float.log2 (float_of_int tpb))) - 8)

let evaluate ?shuffle kind dev (c : Collect.t) m =
  let score = Score.score dev c.softs m in
  let dop = float_of_int (Mapping.dop ~sizes:c.level_sizes m) in
  let prox = -.float_of_int (block_proximity m) in
  match kind with
  | Soft ->
    { soft_score = score; predicted = None; key = [| score; dop; prox |] }
  | Analytical ->
    let p = Predict.predict ?shuffle dev c m in
    {
      soft_score = score;
      predicted = Some p;
      key = [| -.p.Predict.cycles; score; dop; prox |];
    }
  | Hybrid ->
    let p = Predict.predict ?shuffle dev c m in
    {
      soft_score = score;
      predicted = Some p;
      key = [| score; -.p.Predict.cycles; dop; prox |];
    }

let better a b =
  let n = Array.length a.key in
  let rec go i =
    if i >= n then false
    else if a.key.(i) > b.key.(i) then true
    else if a.key.(i) < b.key.(i) then false
    else go (i + 1)
  in
  go 0

let rank ?shuffle kind dev c cands =
  let evals = Array.map (evaluate ?shuffle kind dev c) cands in
  let order = Array.init (Array.length cands) Fun.id in
  (* polymorphic compare on two keys is descending-lexicographic here *)
  Array.stable_sort (fun i j -> compare evals.(j).key evals.(i).key) order;
  (evals, order)

(* ----- Spearman rank correlation (average ranks, Pearson over ranks) ----- *)

let ranks (xs : float array) =
  let n = Array.length xs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare xs.(i) xs.(j)) order;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do incr j done;
    (* ties i..j share the average rank *)
    let avg = float_of_int (!i + !j) /. 2. +. 1. in
    for k = !i to !j do
      r.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman xs ys =
  let n = Array.length xs in
  if n <> Array.length ys || n < 2 then nan
  else begin
    let rx = ranks xs and ry = ranks ys in
    let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let num = ref 0. and vx = ref 0. and vy = ref 0. in
    for i = 0 to n - 1 do
      let dx = rx.(i) -. mx and dy = ry.(i) -. my in
      num := !num +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy)
    done;
    if !vx = 0. || !vy = 0. then nan
    else !num /. sqrt (!vx *. !vy)
  end
