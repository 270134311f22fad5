(* Profile-layer surface over the process-wide metrics registry: the
   per-domain instruments live in Ppat_metrics (zero repo dependencies, so
   every layer can bump them); rendering them as JSON and console text
   belongs here, next to the other exporters. *)

include Ppat_metrics.Metrics

let json_of_labels labels =
  Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) labels)

let json_of_entry (e : entry) =
  let value =
    match e.v with
    | Counter v -> [ ("type", Jsonx.Str "counter"); ("value", Jsonx.Float v) ]
    | Histogram h ->
      [
        ("type", Jsonx.Str "histogram");
        ( "bounds",
          Jsonx.List
            (List.map (fun b -> Jsonx.Float b) (Array.to_list h.hv_bounds)) );
        ( "counts",
          Jsonx.List
            (List.map (fun c -> Jsonx.Float c) (Array.to_list h.hv_counts)) );
        ("sum", Jsonx.Float h.hv_sum);
        ("count", Jsonx.Float h.hv_count);
      ]
  in
  Jsonx.Obj
    (("name", Jsonx.Str e.name)
    :: ("labels", json_of_labels e.labels)
    :: value)

let entries_json entries = Jsonx.List (List.map json_of_entry entries)
let snapshot_json () = entries_json (snapshot ())

let label_suffix = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
    ^ "}"

let pp_snapshot ppf () =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (e : entry) ->
      match e.v with
      | Counter v ->
        Format.fprintf ppf "%-36s %14.0f@," (e.name ^ label_suffix e.labels) v
      | Histogram h ->
        Format.fprintf ppf "%-36s count %8.0f  sum %12.0f  mean %8.1f@,"
          (e.name ^ label_suffix e.labels)
          h.hv_count h.hv_sum
          (if h.hv_count > 0. then h.hv_sum /. h.hv_count else 0.))
    (snapshot ());
  Format.fprintf ppf "@]"
