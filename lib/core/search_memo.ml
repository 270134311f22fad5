(* Memoised mapping decisions, keyed by canonical nest digest.

   The value cached is the full Strategy.decision. Mappings are mutable
   arrays, so both directions copy: the cache never aliases a decision it
   handed out, and callers can tweak what they got back. *)

type t = Strategy.decision Ppat_metrics.Lru.t

let create ?(capacity = 256) () : t =
  Ppat_metrics.Lru.create ~capacity "search_memo"

let copy_decision (d : Strategy.decision) =
  {
    d with
    Strategy.mapping = Array.copy d.Strategy.mapping;
    raw_mapping = Array.copy d.Strategy.raw_mapping;
  }

(* the nest digest covers program structure, shapes, params and device;
   strategy and cost model steer the search on top of the same nest *)
let strategy_tag (s : Strategy.t) =
  match s with
  | Strategy.Fixed m -> "fixed:" ^ Mapping.to_string m
  | s -> Strategy.name s

let key ?model ?shuffle ?params ?bind dev prog pat strategy =
  let model =
    match model with Some m -> m | None -> Cost_model.default ()
  in
  Canon.nest_key ?params ?bind ?shuffle dev prog pat
  ^ "|" ^ strategy_tag strategy
  ^ "|" ^ Cost_model.name model

let decide (t : t) ?model ?shuffle ?params ?bind dev prog pat strategy =
  let k = key ?model ?shuffle ?params ?bind dev prog pat strategy in
  match Ppat_metrics.Lru.find t k with
  | Some d -> copy_decision d
  | None ->
    let c = Collect.collect ?params ?bind dev prog pat in
    let d = Strategy.decide ?model ?shuffle dev c strategy in
    Ppat_metrics.Lru.put t k (copy_decision d);
    d

let stats (t : t) = Ppat_metrics.Lru.stats t
let flush (t : t) = Ppat_metrics.Lru.clear t
let length (t : t) = Ppat_metrics.Lru.length t
