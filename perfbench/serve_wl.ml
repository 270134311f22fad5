(* Workloads `serve-zipf` and `serve-cold`: an in-process Serve.create ()
   with its default capacities (64 plans, 256 memos) driven line by line
   through Serve.handle_line by one closed-loop client, which is how
   `ppat serve` is used: every caller waits for its answer and the server
   takes one connection at a time.

   The menu is 96 configs: 8 apps x 4 sizes x the soft, analytical and
   hybrid cost models. The server builds each request's input itself, so
   the seed draws the request sequence (and the warm-up order); the menu
   and its popularity order are fixed (soft before analytical before
   hybrid, small sizes first, apps interleaved), so the hot set is the
   same under every seed.
   Warm-up sends each config once with its buffers and checks them against
   the CPU oracle; every later answer must carry that first answer's
   digest. *)

module A = Ppat_apps
module R = Ppat_harness.Runner
module J = Util.J

type mode = Zipf | Cold

(* app -> (tiny, size slot 0..3) -> params *)
let apps : (string * (tiny:bool -> int -> (string * int) list)) list =
  let slot tiny small slots s = if tiny then small else List.nth slots s in
  let rc slots ~tiny s =
    let r, c = slot tiny (16, 16) slots s in
    [ ("R", r); ("C", c) ]
  in
  [
    ("sum_rows", rc [ (64, 48); (96, 48); (64, 96); (128, 64) ]);
    ("sum_cols", rc [ (64, 48); (96, 48); (64, 96); (128, 64) ]);
    ("sum_weighted_rows", rc [ (64, 32); (96, 32); (64, 64); (128, 32) ]);
    ( "gemm",
      fun ~tiny s ->
        let m, n, k = slot tiny (4, 4, 4) [ (8, 8, 8); (12, 12, 12); (16, 16, 8); (16, 16, 16) ] s in
        [ ("M", m); ("N", n); ("K", k) ] );
    ( "msm_cluster",
      fun ~tiny s ->
        let t, kc, d = slot tiny (8, 4, 4) [ (16, 8, 8); (24, 8, 8); (32, 4, 8); (16, 8, 16) ] s in
        [ ("T", t); ("KC", kc); ("D", d) ] );
    ( "hotspot",
      fun ~tiny s ->
        let n = slot tiny 8 [ 24; 32; 40; 48 ] s in
        [ ("N", n); ("NM1", n - 1); ("STEPS", 1) ] );
    ( "mandelbrot",
      fun ~tiny s ->
        let h, w, it = slot tiny (8, 8, 8) [ (32, 32, 16); (24, 48, 16); (48, 24, 16); (32, 32, 24) ] s in
        [ ("H", h); ("W", w); ("MAXIT", it) ] );
    (* the app requires S <= K *)
    ( "qpscd",
      fun ~tiny s ->
        let sm, k = slot tiny (16, 16) [ (64, 64); (48, 96); (96, 96); (64, 128) ] s in
        [ ("S", sm); ("K", k) ] );
  ]

let models = [ "soft"; "analytical"; "hybrid" ]

type config = {
  name : string;  (* registry name *)
  label : string;
  app : A.App.t;  (* the client's copy, built the way the server builds it *)
  params : (string * int) list;
  model : string;
  expected : Ppat_ir.Host.data;  (* the oracle's outputs *)
  mutable digest : string option;  (* the first answer's *)
}

(* the server's app for a request: the registry entry with the request's
   parameters over its own *)
let client_app name params =
  match A.Registry.find name with
  | None -> failwith ("unknown app " ^ name)
  | Some app ->
    {
      app with
      A.App.params = params @ List.filter (fun (k, _) -> not (List.mem_assoc k params)) app.params;
    }

let request_line ~id ~no_cache ~buffers c =
  J.to_string ~minify:true
    (J.Obj
       [
         ("id", J.Int id);
         ("app", J.Str c.name);
         ("params", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) c.params));
         ("strategy", J.Str "auto");
         ("cost_model", J.Str c.model);
         ("engine", J.Str "compiled");
         ("sim_jobs", J.Int 1);
         ("no_cache", J.Bool no_cache);
         ("buffers", J.Bool buffers);
       ])

let rec at path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (at rest)

let num path j = Option.bind (at path j) J.to_float

(* an answer's buffers, typed by the program's declarations *)
let buffers_of (c : config) j =
  List.map
    (fun (b : Ppat_ir.Pat.buffer) ->
      let vals =
        match Option.bind (at [ "answer"; "buffers"; b.bname ] j) J.to_list with
        | Some l -> l
        | None -> failwith ("answer has no buffer " ^ b.bname)
      in
      let get f = Array.of_list (List.map (fun x -> Option.get (f x)) vals) in
      ( b.bname,
        match b.elem with
        | Ppat_ir.Ty.F64 -> Ppat_ir.Host.F (get J.to_float)
        | Ppat_ir.Ty.I32 | Ppat_ir.Ty.Bool -> Ppat_ir.Host.I (get J.to_int) ))
    c.app.A.App.prog.Ppat_ir.Pat.buffers

let stats_of j =
  let s = Ppat_gpu.Stats.create () in
  let f k = Option.value ~default:0. (num [ "answer"; "stats"; k ] j) in
  s.warp_insts <- f "warp_insts";
  s.transactions <- f "transactions";
  s.bytes <- f "bytes";
  s.l2_bytes <- f "l2_bytes";
  s.smem_conflict_extra <- f "smem_conflict_extra";
  s

let setup ~mode ~seed ~tiny acc =
  let rng = Random.State.make [| seed; (match mode with Zipf -> 0x21bf | Cold -> 0xc01d) |] in
  let server = Ppat_serve.Serve.create () in
  let slots = if tiny then 1 else 4 in
  (* popularity order: index = model-major, then size slot, then app *)
  let configs =
    Array.of_list
      (List.concat_map
         (fun model ->
           List.concat
             (List.init slots (fun s ->
                  List.map
                    (fun (name, mk) ->
                      let params = mk ~tiny s in
                      let app, data =
                        Trace.span "apps.gen" (fun () ->
                            let app = client_app name params in
                            (app, A.App.input_data app))
                      in
                      let cpu = Acc.oracle acc ~params:app.params app.prog data in
                      {
                        name;
                        label =
                          Printf.sprintf "%s[%s]/%s" name
                            (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params))
                            model;
                        app;
                        params;
                        model;
                        expected = cpu.R.cpu_data;
                        digest = None;
                      })
                    apps)))
         models)
  in
  let k = Array.length configs in
  let next =
    match mode with
    | Zipf ->
      let sample = Util.zipf_sampler ~s:1.1 k in
      fun () -> sample rng
    | Cold -> fun () -> Random.State.int rng k
  in
  let no_cache = mode = Cold in
  let ids = ref 0 in
  let det_stats = Ppat_gpu.Stats.create () and det_secs = ref [] in
  (* one request; [validate] also checks the answer's buffers against the
     oracle and makes its digest the config's reference *)
  let request acc ~validate c =
    Acc.attempt acc c.label (fun () ->
        incr ids;
        let line = request_line ~id:!ids ~no_cache ~buffers:validate c in
        let _, j, wall =
          Trace.span_parts "serve.request"
            (fun () -> fst (Ppat_serve.Serve.handle_line server line))
            (fun resp ->
              let j =
                match J.of_string resp with
                | Ok j -> j
                | Error e -> failwith ("unparseable response: " ^ e)
              in
              let t k = Option.value ~default:0. (num [ "timing_ms"; k ] j) /. 1000. in
              (j, [ ("core.search", t "search"); ("kernel.stage", t "stage"); ("kernel.simulate", t "sim") ]))
        in
        Trace.span "bench.client" (fun () ->
            if J.member "ok" j <> Some (J.Bool true) then
              failwith
                (Option.value ~default:"ok:false" (Option.bind (J.member "error" j) J.to_str));
            let digest =
              match Option.bind (at [ "answer"; "digest" ] j) J.to_str with
              | Some d -> d
              | None -> failwith "answer has no digest"
            in
            let stats = stats_of j in
            Acc.call acc ~app:c.name wall;
            (* the server's own simulation wall: the request's also holds
               search, staging and JSON *)
            Acc.gpu acc
              ~wall:(Option.value ~default:0. (num [ "timing_ms"; "sim" ] j) /. 1000.)
              ~warp_insts:stats.warp_insts;
            if validate then begin
              Acc.check acc ~what:c.label c.app ~expected:c.expected ~actual:(buffers_of c j);
              Ppat_gpu.Stats.add det_stats stats;
              det_secs := Option.value ~default:nan (num [ "answer"; "seconds" ] j) :: !det_secs
            end;
            match c.digest with
            | None -> c.digest <- Some digest
            | Some d when d <> digest -> Acc.fail acc "%s: answer digest drifted" c.label
            | Some _ -> ()))
  in
  (* a pass is as many requests as the menu has configs *)
  let round acc ~traced:_ =
    for _ = 1 to k do
      Trace.op (fun () -> request acc ~validate:false configs.(next ()))
    done;
    k
  in
  let warmup acc ~traced =
    let order = Array.copy configs in
    Util.shuffle rng order;
    Array.iter (fun c -> Trace.op (fun () -> request acc ~validate:true c)) order;
    (* ten passes of the Zipf trace (960 requests) settle the plan cache *)
    if mode = Zipf then
      for _ = 1 to if tiny then 1 else 10 do
        ignore (round acc ~traced)
      done
  in
  { Instance.warmup; round; deterministic = (fun () -> (det_stats, !det_secs)) }
