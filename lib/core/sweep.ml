(* Mapping-space evaluation, pure side (the paper's Algorithm 1
   turned into a population evaluator).

   The harness executes candidate populations (lib/harness/runner.ml);
   this module owns everything that needs no simulator: grouping a
   population by mapping shape, picking which candidates an active-
   learning budget should simulate (where the cost models disagree most
   about rank), fitting the affine calibration of predicted cycles
   against simulated seconds, and the summary statistics (regret, mean
   absolute relative error) the calibration loop reports before and
   after. *)

(* group candidate indices [0, n) by [key], preserving first-seen group
   order and in-group index order *)
let group_by ~key n =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  for i = 0 to n - 1 do
    match key i with
    | None -> ()
    | Some k -> (
      match Hashtbl.find_opt tbl k with
      | Some members -> members := i :: !members
      | None ->
        let members = ref [ i ] in
        Hashtbl.add tbl k members;
        order := (k, members) :: !order)
  done;
  List.rev_map (fun (k, members) -> (k, List.rev !members)) !order

(* ----- active learning: simulate where the models disagree -----

   Each cost model induces a total order on the population. A candidate
   all models place at similar ranks carries little information — the
   models already agree. A candidate with wildly different ranks is where
   simulating settles an argument, so the budget goes there first. *)

(* positions.(m).(i) = rank of candidate i under model m; the result is
   each candidate's largest pairwise rank difference across models *)
let rank_disagreement (positions : int array list) n =
  let d = Array.make n 0. in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          for i = 0 to n - 1 do
            d.(i) <- Float.max d.(i) (Float.abs (float_of_int (a.(i) - b.(i))))
          done)
        rest;
      pairs rest
  in
  pairs positions;
  d

(* the [always] indices (each model's incumbent, typically) plus the
   highest-disagreement candidates up to [budget]; ascending index order *)
let select ~budget ~always (disagreement : float array) =
  let n = Array.length disagreement in
  let chosen = Hashtbl.create 16 in
  List.iter
    (fun i -> if i >= 0 && i < n then Hashtbl.replace chosen i ())
    always;
  let by_disagreement = Array.init n (fun i -> i) in
  (* stable on ties: lower index wins, keeping selection deterministic *)
  Array.sort
    (fun a b ->
      match compare disagreement.(b) disagreement.(a) with
      | 0 -> compare a b
      | c -> c)
    by_disagreement;
  Array.iter
    (fun i -> if Hashtbl.length chosen < budget then Hashtbl.replace chosen i ())
    by_disagreement;
  List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) chosen [])

(* ----- affine calibration fit -----

   Ordinary least squares of simulated seconds against predicted cycles.
   A fit only counts when it is monotone ([gain > 0]) and the sample has
   spread; otherwise [None], and the caller keeps whatever calibration it
   had (the identity by default) — this is what makes the calibration
   loop's regret guarantee unconditional: applying a positive-gain affine
   map never changes an [Analytical]/[Hybrid] ranking, so post-
   calibration regret equals pre-calibration regret, while the absolute
   scale error (MARE) shrinks to the least-squares optimum. *)

let fit_affine (pairs : (float * float) list) : Cost_model.calibration option =
  let n = List.length pairs in
  if n < 2 then None
  else begin
    let fn = float_of_int n in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pairs /. fn in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pairs /. fn in
    let var, cov =
      List.fold_left
        (fun (var, cov) (x, y) ->
          let dx = x -. sx in
          (var +. (dx *. dx), cov +. (dx *. (y -. sy))))
        (0., 0.) pairs
    in
    if var <= 0. then None
    else
      let gain = cov /. var in
      if not (Float.is_finite gain) || gain <= 0. then None
      else Some { Cost_model.gain; offset = sy -. (gain *. sx) }
  end

(* ----- summary statistics ----- *)

(* how much slower the model's pick is than the best simulated candidate *)
let regret ~best chosen = if best > 0. then (chosen /. best) -. 1. else 0.

(* mean absolute relative error of predictions against measurements;
   None when no measurement is usable *)
let mare (pairs : (float * float) list) =
  let used, total =
    List.fold_left
      (fun (used, total) (pred, actual) ->
        if actual > 0. && Float.is_finite pred then
          (used + 1, total +. (Float.abs (pred -. actual) /. actual))
        else (used, total))
      (0, 0.) pairs
  in
  if used = 0 then None else Some (total /. float_of_int used)
