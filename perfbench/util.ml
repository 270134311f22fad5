(* Helpers shared by every workload and by `agree`: order statistics, the
   Zipf sampler, process memory, and the mapping-space setup of a sweep. *)

module J = Ppat_profile.Jsonx

let dev = Ppat_gpu.Device.k20c
let now = Unix.gettimeofday

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile of an ascending array, bench/main.ml's rule; nan
   when empty *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

let median l = percentile (sorted l) 50.

(* Python's statistics.quantiles(data, n=4) (the default "exclusive"
   method), so the spreads `agree` reports are the ones an external check
   computes from the same values *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l, median l)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

let geomean l =
  match List.filter (fun x -> x > 0.) l with
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float (List.length xs))

(* inverse-CDF sampling of rank r with P(r) proportional to 1/r^s over the
   config menu; draws the same ranks as bench/main.ml's sampler *)
let zipf_sampler ~s k =
  let w = Array.init k (fun i -> 1.0 /. Float.pow (float (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let cum = Array.make k 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cum.(i) <- !acc)
    w;
  fun rng ->
    let u = Random.State.float rng 1.0 in
    let rec find i = if i >= k - 1 || u <= cum.(i) then i else find (i + 1) in
    find 0

(* seeded in-place Fisher-Yates shuffle *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* every floating-point input scaled element-wise by a seeded factor in
   [0.99, 1.01]: new values, the same shapes and the same work *)
let perturb rng (data : Ppat_ir.Host.data) =
  List.map
    (fun (name, buf) ->
      match buf with
      | Ppat_ir.Host.F a ->
        (name, Ppat_ir.Host.F (Array.map (fun x -> x *. (1. +. (0.01 *. (Random.State.float rng 2. -. 1.)))) a))
      | Ppat_ir.Host.I _ -> (name, buf))
    data

(* high-water resident set of this process, in MB; nan off Linux *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
              kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* words allocated by the calling domain (minor + major - promoted) *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* a registry counter summed over the label sets that include [labels]
   (all of them by default, e.g. every cost model's search counter) *)
let counter_total ?(labels = []) entries name =
  List.fold_left
    (fun acc (e : Ppat_metrics.Metrics.entry) ->
      match e.v with
      | Ppat_metrics.Metrics.Counter v
        when e.name = name && List.for_all (fun l -> List.mem l e.labels) labels ->
        acc +. v
      | _ -> acc)
    0. entries

(* the target pattern (richest mapping space), its deduped candidate
   mappings, and soft-auto base mappings for the other patterns: the setup
   `ppat sweep` and `bench/main.exe --sweep` use. [on_collect] and
   [on_search] wrap the analysis calls so a trace can attribute them. *)
let sweep_space ?(on_collect = fun f -> f ()) ?(on_search = fun f -> f ())
    (app : Ppat_apps.App.t) =
  let module P = Ppat_ir.Pat in
  let ap = Ppat_harness.Runner.analysis_params app.prog app.params in
  let pats = ref [] in
  let rec step = function
    | P.Launch n ->
      if not (List.mem_assoc n.pat.P.pid !pats) then begin
        let c =
          on_collect (fun () ->
              Ppat_core.Collect.collect ~params:ap ?bind:n.P.bind dev app.prog n.P.pat)
        in
        pats := (n.pat.P.pid, (n, c)) :: !pats
      end
    | P.Host_loop { body; _ } | P.While_flag { body; _ } -> List.iter step body
    | P.Swap _ -> ()
  in
  List.iter step app.prog.P.steps;
  let pats = List.rev !pats in
  on_search (fun () ->
      let base =
        List.map
          (fun (pid, (_, c)) ->
            ( pid,
              (Ppat_core.Strategy.decide ~model:Ppat_core.Cost_model.Soft dev c
                 Ppat_core.Strategy.Auto)
                .Ppat_core.Strategy.mapping ))
          pats
      in
      let target, cands =
        List.fold_left
          (fun ((_, bm) as best) (pid, (n, c)) ->
            let ms =
              List.map fst
                (Ppat_core.Search.enumerate ~model:Ppat_core.Cost_model.Soft dev c)
            in
            if List.length ms > List.length bm then (Some (pid, n), ms) else best)
          (None, []) pats
      in
      let seen = Hashtbl.create 64 in
      let cands =
        List.filter
          (fun (m : Ppat_core.Mapping.t) ->
            let k = Digest.string (Marshal.to_string m []) in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          cands
      in
      match target with
      | None -> failwith (app.name ^ ": no launch to sweep")
      | Some target -> (base, target, Array.of_list cands))
