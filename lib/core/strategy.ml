type t =
  | Auto
  | One_d
  | Thread_block_thread
  | Warp_based
  | Fixed of Mapping.t

type decision = {
  mapping : Mapping.t;
  raw_mapping : Mapping.t;
  score : float;
  via : string;
  model : Cost_model.kind;
  predicted : Predict.t option;
}

let name = function
  | Auto -> "MultiDim"
  | One_d -> "1D"
  | Thread_block_thread -> "ThreadBlock/Thread"
  | Warp_based -> "Warp-based"
  | Fixed _ -> "Fixed"

let of_string ~name =
  Ppat_gpu.Tuning.parse_enum ~name
    [
      ([ "auto"; "multidim" ], Auto);
      ([ "1d"; "one_d" ], One_d);
      ([ "tbt"; "thread_block" ], Thread_block_thread);
      ([ "warp"; "warp_based" ], Warp_based);
    ]

(* overlay hard Span(all) requirements onto a preset *)
let respect_hard (c : Collect.t) (m : Mapping.t) =
  Array.mapi
    (fun l (d : Mapping.decision) ->
      match c.span_all_required.(l) with
      | Some _ when d.span <> Mapping.Span_all && (match d.span with Mapping.Split _ -> false | _ -> true) ->
        { d with span = Mapping.Span_all }
      | _ -> d)
    m

let dim_of_level l = List.nth Mapping.dims l

let preset (c : Collect.t) which =
  let depth = c.levels.depth in
  let open Mapping in
  let m =
    match which, depth with
    | `One_d, _ ->
      Array.init depth (fun l ->
          if l = 0 then { dim = X; bsize = 256; span = span1 }
          else { dim = dim_of_level l; bsize = 1; span = Span_all })
    | (`Tbt | `Warp), 1 ->
      (* fixed two-level strategies degenerate on flat patterns *)
      [| { dim = X; bsize = 256; span = span1 } |]
    | `Tbt, _ ->
      Array.init depth (fun l ->
          if l = 0 then { dim = Y; bsize = 1; span = span1 }
          else if l = 1 then { dim = X; bsize = 1024; span = Span_all }
          else { dim = Z; bsize = 1; span = Span_all })
    | `Warp, _ ->
      Array.init depth (fun l ->
          if l = 0 then { dim = Y; bsize = 16; span = span1 }
          else if l = 1 then { dim = X; bsize = 32; span = Span_all }
          else { dim = Z; bsize = 1; span = Span_all })
  in
  respect_hard c m

(* a preset visits exactly one candidate; report it through the same trace
   channel the auto search uses, so [trace-search] works for any strategy *)
let trace_one trace model ~shuffle dev (c : Collect.t) m =
  match trace with
  | None -> ()
  | Some g ->
    let e = Cost_model.evaluate ~shuffle model dev c m in
    g
      {
        Search.t_mapping = Array.copy m;
        t_score = e.Cost_model.soft_score;
        t_dop = Mapping.dop ~sizes:c.level_sizes m;
        t_pruned = [];
        t_softs = Score.explain dev c.softs m;
        t_predicted = e.Cost_model.predicted;
        t_key = e.Cost_model.key;
      }

(* a fixed mapping was not chosen by any model, but its prediction is
   still recorded so profiles can report predicted-vs-simulated time *)
let fixed_decision trace model ~shuffle dev (c : Collect.t) m via =
  trace_one trace model ~shuffle dev c m;
  {
    mapping = m;
    raw_mapping = m;
    score = Score.score dev c.softs m;
    via;
    model;
    predicted = Some (Predict.predict ~shuffle dev c m);
  }

let decide ?trace ?(model = Cost_model.default ()) ?(shuffle = false) dev
    (c : Collect.t) strat =
  let fixed_decision = fixed_decision trace model ~shuffle dev c in
  match strat with
  | Auto ->
    let r = Search.search ?trace ~model ~shuffle dev c in
    {
      mapping = r.mapping;
      raw_mapping = r.raw_mapping;
      score = r.score;
      via =
        (match model with
         | Cost_model.Soft ->
           Printf.sprintf "auto search (%d candidates, DOP %d)" r.candidates
             r.dop
         | Cost_model.Analytical | Cost_model.Hybrid ->
           Printf.sprintf "auto search (%d candidates, DOP %d, %s model)"
             r.candidates r.dop (Cost_model.name model));
      model;
      predicted = r.predicted;
    }
  | One_d -> fixed_decision (preset c `One_d) "1D preset"
  | Thread_block_thread ->
    fixed_decision (preset c `Tbt) "thread-block/thread preset"
  | Warp_based -> fixed_decision (preset c `Warp) "warp-based preset"
  | Fixed m -> fixed_decision (respect_hard c m) "fixed"
