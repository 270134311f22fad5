(* `benchmark.exe agree A B`: do two sets of runs agree within the
   benchmark's own bounds? A and B each hold the captured stdout of any
   number of runs (each run prints a report line, then its result line).
   Per workload and end-to-end metric it prints both sets' quartiles and
   fails when the medians differ by more than the metric's bound (DIFFERS),
   when a set's quartile spread exceeds the bound, set-up time excepted, so
   that the comparison cannot tell (UNRESOLVED), or when any run failed an
   operation. Run the two sets interleaved, A and B in alternating order,
   so that drift of the host's speed lands on both. Wall clocks are only
   comparable on the same topology, so it refuses outright when cores,
   jobs, sim_jobs or engine differ between any two runs of a workload. *)

module J = Util.J

type run = { workload : string; topo : (string * J.t) list; result : J.t }

let load file =
  let ic = open_in_bin file in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc in
  let ls = lines [] in
  close_in ic;
  let report = ref None and runs = ref [] in
  List.iter
    (fun l ->
      match J.of_string l with
      | Error _ -> ()
      | Ok j -> (
        match (Option.bind (J.member "perfbench" j) J.to_str, J.member "metrics" j) with
        | Some w, _ -> report := Some (w, j)
        | None, Some _ -> (
          match !report with
          | Some (workload, r) ->
            let topo =
              List.map
                (fun k ->
                  (k, Option.value ~default:J.Null (Option.bind (J.member "topology" r) (J.member k))))
                [ "cores"; "jobs"; "sim_jobs"; "engine" ]
            in
            runs := { workload; topo; result = j } :: !runs;
            report := None
          | None -> ())
        | None, None -> ()))
    ls;
  List.rev !runs

let value name (r : run) =
  Option.bind (J.member "metrics" r.result) (fun m ->
      Option.bind (J.member name m) (fun v -> Option.bind (J.member "value" v) J.to_float))

let failed (r : run) = Option.value ~default:0 (Option.bind (J.member "failed" r.result) J.to_int)

let main file_a file_b =
  let a = load file_a and b = load file_b in
  if a = [] || b = [] then begin
    Printf.eprintf "agree: no runs found in %s\n" (if a = [] then file_a else file_b);
    2
  end
  else begin
    let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (a @ b)) in
    let refused =
      List.filter
        (fun w ->
          let topos = List.sort_uniq compare (List.filter_map (fun r -> if r.workload = w then Some r.topo else None) (a @ b)) in
          List.length topos > 1)
        workloads
    in
    if refused <> [] then begin
      Printf.eprintf
        "agree: refusing to compare wall clocks: cores, jobs, sim_jobs or engine differ between runs of %s\n"
        (String.concat ", " refused);
      2
    end
    else begin
      let bad = ref 0 in
      let spread (q1, med, q3) = (q3 -. q1) /. med in
      List.iter
        (fun w ->
          let ra = List.filter (fun r -> r.workload = w) a
          and rb = List.filter (fun r -> r.workload = w) b in
          let fails = List.fold_left (fun n r -> n + failed r) 0 (ra @ rb) in
          Printf.printf "%s: %d + %d runs%s\n" w (List.length ra) (List.length rb)
            (if fails > 0 then Printf.sprintf ", %d FAILED operations" fails else "");
          if fails > 0 then incr bad;
          List.iter
            (fun (m : Spec.metric) ->
              match m.tier with
              | Spec.Per_layer -> ()
              | Spec.End_to_end bound ->
                let va = List.filter_map (value m.name) ra and vb = List.filter_map (value m.name) rb in
                if va <> [] && vb <> [] then begin
                  let ((_, ma, _) as qa) = Util.quartiles va and ((_, mb, _) as qb) = Util.quartiles vb in
                  let diff = (mb -. ma) /. ma in
                  let spread_ok q = m.name = "setup_s" || spread q <= bound in
                  let verdict =
                    if Float.abs diff > bound then "DIFFERS"
                    else if not (spread_ok qa && spread_ok qb) then "UNRESOLVED"
                    else "ok"
                  in
                  if verdict <> "ok" then incr bad;
                  let q (q1, md, q3) = Printf.sprintf "%.4g [%.4g..%.4g]" md q1 q3 in
                  Printf.printf "  %-16s %-8s A %-30s B %-30s diff %+6.1f%% spread %4.1f%%/%4.1f%% bound %2.0f%% %s\n"
                    m.name m.unit_ (q qa) (q qb) (100. *. diff) (100. *. spread qa) (100. *. spread qb)
                    (100. *. bound) verdict
                end)
            Spec.all)
        workloads;
      if !bad = 0 then (print_endline "agree: OK"; 0)
      else (Printf.printf "agree: %d problem(s)\n" !bad; 1)
    end
  end
