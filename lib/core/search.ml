type result = {
  mapping : Mapping.t;
  raw_mapping : Mapping.t;
  score : float;
  dop : int;
  candidates : int;
  model : Cost_model.kind;
  predicted : Predict.t option;
}

type traced = {
  t_mapping : Mapping.t;
  t_score : float;
  t_dop : int;
  t_pruned : string list;
  t_softs : Score.component list;
  t_predicted : Predict.t option;
  t_key : float array;
}

let block_size_candidates (dev : Ppat_gpu.Device.t) =
  let rec go n = if n > dev.max_threads_per_block then [] else n :: go (2 * n) in
  go 1

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

(* hard-constraint violations of a fully assembled candidate; [] means the
   candidate is feasible *)
let hard_violations (dev : Ppat_gpu.Device.t) (m : Mapping.t) =
  let vs = ref [] in
  let tpb = Mapping.threads_per_block m in
  if tpb > dev.max_threads_per_block then
    vs :=
      Printf.sprintf "%d threads/block exceeds device limit %d" tpb
        dev.max_threads_per_block
      :: !vs;
  Array.iteri
    (fun l (d : Mapping.decision) ->
      if d.bsize > dev.max_block_dim then
        vs :=
          Printf.sprintf "L%d block size %d exceeds per-dimension limit %d" l
            d.bsize dev.max_block_dim
          :: !vs)
    m;
  List.rev !vs

(* The single candidate generator: both the search and the Figure-17
   enumeration consume this, so the two can never drift. When [trace] is
   absent, infeasible subtrees are pruned eagerly for speed. When present,
   every leaf candidate is assembled and reported (with its hard
   violations, if any) before feasible ones reach [f]; the set and order
   of feasible candidates is identical either way, so tracing never
   changes the search outcome. *)
let iter_candidates ?trace ?(on_prune = fun () -> ()) dev (c : Collect.t) f =
  let nlevels = c.levels.depth in
  if nlevels > List.length Mapping.dims then
    invalid_arg
      (Printf.sprintf "search: %d levels exceed the %d logical dimensions"
         nlevels (List.length Mapping.dims));
  let dim_assignments = permutations (take nlevels Mapping.dims) in
  let bsizes = block_size_candidates dev in
  let tracing = trace <> None in
  let spans_for l =
    match c.span_all_required.(l) with
    | Some _ -> [ Mapping.Span_all ]
    | None -> [ Mapping.span1; Mapping.Span_all ]
  in
  (* enumerate per-level (bsize, span) choices depth-first *)
  let rec levels l acc dims =
    if l = nlevels then begin
      let m = Array.of_list (List.rev acc) in
      let violations = hard_violations dev m in
      (match trace with Some g -> g m violations | None -> ());
      if violations = [] then f m else on_prune ()
    end
    else
      match dims with
      | [] -> assert false
      | dim :: dims_rest ->
        List.iter
          (fun bsize ->
            if tracing || bsize <= dev.max_block_dim then
              List.iter
                (fun span ->
                  levels (l + 1)
                    ({ Mapping.dim; bsize; span } :: acc)
                    dims_rest)
                (spans_for l)
            else on_prune ())
          bsizes
  in
  List.iter (fun dims -> levels 0 [] dims) dim_assignments

let traced_of eval dev (c : Collect.t) m violations =
  let e : Cost_model.eval = eval m in
  {
    t_mapping = Array.copy m;
    t_score = e.Cost_model.soft_score;
    t_dop = Mapping.dop ~sizes:c.level_sizes m;
    t_pruned = violations;
    t_softs = Score.explain dev c.softs m;
    t_predicted = e.Cost_model.predicted;
    t_key = e.Cost_model.key;
  }

let enumerate ?(model = Cost_model.default ()) dev (c : Collect.t) =
  let eval = Cost_model.evaluate model dev c in
  let out = ref [] in
  iter_candidates dev c (fun m -> out := (Array.copy m, eval m) :: !out);
  List.rev !out

let search ?trace ?(model = Cost_model.default ()) ?shuffle dev
    (c : Collect.t) =
  let eval = Cost_model.evaluate ?shuffle model dev c in
  let best = ref None in
  let count = ref 0 in
  let labels = [ ("model", Cost_model.name model) ] in
  let m_evaluated =
    Ppat_metrics.Metrics.counter ~labels "search.candidates_evaluated"
  and m_pruned =
    Ppat_metrics.Metrics.counter ~labels "search.candidates_pruned"
  in
  let trace =
    match trace with
    | None -> None
    | Some g -> Some (fun m violations -> g (traced_of eval dev c m violations))
  in
  let on_prune () = Ppat_metrics.Metrics.incr m_pruned in
  iter_candidates ?trace ~on_prune dev c (fun m ->
      incr count;
      Ppat_metrics.Metrics.incr m_evaluated;
      let e = eval m in
      match !best with
      | None -> best := Some (Array.copy m, e)
      | Some (_, be) ->
        if Cost_model.better e be then best := Some (Array.copy m, e));
  match !best with
  | None -> failwith "search: no hard-feasible mapping"
  | Some (raw, e) ->
    let splittable l = not (Ppat_ir.Levels.has_dynamic_size c.levels l) in
    let mapping = Dop.control dev ~sizes:c.level_sizes ~splittable raw in
    {
      mapping;
      raw_mapping = raw;
      score = e.Cost_model.soft_score;
      dop = Mapping.dop ~sizes:c.level_sizes mapping;
      candidates = !count;
      model;
      (* re-predict the shipped mapping (DOP control may have changed it)
         so profiles can report predicted-vs-simulated per launch *)
      predicted = Some (Predict.predict ?shuffle dev c mapping);
    }
