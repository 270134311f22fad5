(* Mapping-space evaluation, pure side (the paper's Algorithm 1 turned
   into a population evaluator).

   The harness executes candidate populations (lib/harness/runner.ml);
   this module owns what needs no simulator: grouping a population by
   mapping shape, the sample rule of a mapping-space report (which
   candidates to simulate) and the regret statistic it reports. *)

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

(* about a dozen evenly spaced candidates cover the population's range *)
let stride n = max 1 (n / 12)

let sample ~top (orders : int array list) n =
  let chosen = Array.make n false and s = stride n in
  List.iter
    (Array.iteri (fun rank i -> if rank < top then chosen.(i) <- true))
    orders;
  List.filter (fun i -> chosen.(i) || i mod s = 0) (List.init n Fun.id)

(* how much slower the model's pick is than the best simulated candidate *)
let regret ~best chosen = if best > 0. then (chosen /. best) -. 1. else 0.
