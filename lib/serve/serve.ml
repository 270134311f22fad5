(* Mapping-as-a-service: the persistent compile server.

   The interesting state is two LRUs. The search memo deduplicates mapping
   searches across requests by canonical nest digest; the plan cache holds
   whole staged programs — compiled closure trees plus their staging
   memory image — keyed by canonical program digest, strategy, cost model,
   engine and the server's shuffle bit. A plan hit replays the closures
   against the request's data and pays only simulation cost; the answer
   is bit-identical to a cold
   run because replay refills the very arrays the closures captured
   (Runner.replay's contract, asserted by test_serve). *)

module A = Ppat_apps
module Runner = Ppat_harness.Runner
module Interp = Ppat_kernel.Interp
module Strategy = Ppat_core.Strategy
module Cost_model = Ppat_core.Cost_model
module Canon = Ppat_core.Canon
module Search_memo = Ppat_core.Search_memo
module Mapping = Ppat_core.Mapping
module Lru = Ppat_metrics.Lru
module Jsonx = Ppat_profile.Jsonx
module Record = Ppat_profile.Record
module Metrics = Ppat_profile.Metrics

let schema = "ppat-serve/1"
let now () = Unix.gettimeofday ()

(* ----- server state ----- *)

type plan_entry = {
  pe_plan : Runner.plan option;  (* None: known unstageable *)
  pe_why : string option;
  pe_decisions : (int * Strategy.decision) list;
}

type t = {
  device : Ppat_gpu.Device.t;
  opts : Ppat_codegen.Lower.options;
      (* every request's lowering options, read from PPAT_SHUFFLE once *)
  memo : Search_memo.t;
  plans : plan_entry Lru.t;
  profile_lock : Mutex.t;
      (* profiled requests snapshot-and-diff the global metrics registry;
         the lock keeps two profiled requests from interleaving (plain
         requests still run concurrently — callers are warned the delta
         is exact only when the request has the registry to itself, which
         handle_lines arranges by running profiled requests serially) *)
}

let create ?(device = Ppat_gpu.Device.k20c) ?(memo_capacity = 256)
    ?(plan_capacity = 64) () =
  {
    device;
    opts = Ppat_codegen.Lower.effective_options ();
    memo = Search_memo.create ~capacity:memo_capacity ();
    plans = Lru.create ~capacity:plan_capacity "plan_cache";
    profile_lock = Mutex.create ();
  }

let cache_stats t =
  [
    ("search_memo", Search_memo.stats t.memo, Search_memo.length t.memo);
    ("plan_cache", Lru.stats t.plans, Lru.length t.plans);
  ]

let flush t =
  Search_memo.flush t.memo;
  Lru.clear t.plans

(* ----- request parsing ----- *)

type req = {
  rq_id : Jsonx.t;
  rq_app : string;
  rq_params : (string * int) list;
  rq_strategy : Strategy.t;
  rq_engine : Interp.engine;
  rq_model : Cost_model.kind;
  rq_sim_jobs : int;
  rq_profile : bool;
  rq_buffers : bool;
  rq_validate : bool;
  rq_no_cache : bool;
}

exception Bad_request of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad_request s)) fmt

(* a bad enum value becomes a named request error *)
let parse_field parse name v =
  match parse ~name v with Ok x -> x | Error e -> fail "%s" e

(* [default] is forced only when the field is absent: it may read a
   PPAT_* variable, which must not fail a request that names the field *)
let str_field ?default j name =
  match Jsonx.member name j with
  | None | Some Jsonx.Null -> (
    match default with
    | Some d -> d ()
    | None -> fail "missing required field %S" name)
  | Some v -> (
    match Jsonx.to_str v with
    | Some s -> s
    | None -> fail "field %S must be a string" name)

let bool_field j name =
  match Jsonx.member name j with
  | None | Some Jsonx.Null -> false
  | Some (Jsonx.Bool b) -> b
  | Some _ -> fail "field %S must be a boolean" name

let params_field j =
  match Jsonx.member "params" j with
  | None | Some Jsonx.Null -> []
  | Some (Jsonx.Obj fields) ->
    List.map
      (fun (k, v) ->
        match Jsonx.to_int v with
        | Some n when n < 0 -> fail "parameter %S must be non-negative, got %d" k n
        | Some n -> (k, n)
        | None -> fail "parameter %S must be an integer" k)
      fields
  | Some _ -> fail "field \"params\" must be an object of integers"

let req_of_json j =
  let rq_engine =
    parse_field Interp.engine_of_string "engine"
      (str_field
         ~default:(fun () -> Interp.engine_name (Interp.default_engine ()))
         j "engine")
  in
  let rq_model =
    let s =
      str_field
        ~default:(fun () -> Cost_model.name (Cost_model.default ()))
        j "cost_model"
    in
    match Cost_model.of_string s with Ok m -> m | Error e -> fail "%s" e
  in
  let rq_sim_jobs =
    match Jsonx.member "sim_jobs" j with
    | None | Some Jsonx.Null -> Interp.default_jobs ()
    | Some v -> (
      match Jsonx.to_int v with
      | Some n when n >= 1 -> min n Ppat_parallel.max_jobs
      | _ -> fail "field \"sim_jobs\" must be a positive integer")
  in
  {
    rq_id = Option.value (Jsonx.member "id" j) ~default:Jsonx.Null;
    rq_app = str_field j "app";
    rq_params = params_field j;
    rq_strategy =
      parse_field Strategy.of_string "strategy"
        (str_field ~default:(fun () -> "auto") j "strategy");
    rq_engine;
    rq_model;
    rq_sim_jobs;
    rq_profile = bool_field j "profile";
    rq_buffers = bool_field j "buffers";
    rq_validate = bool_field j "validate";
    rq_no_cache = bool_field j "no_cache";
  }

(* ----- answers ----- *)

let buf_json = function
  | Ppat_ir.Host.F a ->
    Jsonx.List (Array.to_list (Array.map (fun v -> Jsonx.Float v) a))
  | Ppat_ir.Host.I a ->
    Jsonx.List (Array.to_list (Array.map (fun v -> Jsonx.Int v) a))

let answer_json ~app ~buffers ~validated (r : Runner.gpu_result) =
  Jsonx.Obj
    ([
       ("app", Jsonx.Str app);
       ("seconds", Jsonx.Float r.Runner.seconds);
       ("kernels", Jsonx.Int r.Runner.kernels);
       ("stats", Record.json_of_stats r.Runner.stats);
       ( "decisions",
         Jsonx.List
           (List.map
              (fun (label, (d : Strategy.decision)) ->
                Jsonx.Obj
                  [
                    ("label", Jsonx.Str label);
                    ("mapping", Jsonx.Str (Mapping.to_string d.Strategy.mapping));
                    ("via", Jsonx.Str d.Strategy.via);
                  ])
              r.Runner.decisions) );
       ("notes", Jsonx.List (List.map (fun n -> Jsonx.Str n) r.Runner.notes));
       ("digest", Jsonx.Str (Runner.result_digest r));
     ]
    @ (if buffers then
         [
           ( "buffers",
             Jsonx.Obj (List.map (fun (n, b) -> (n, buf_json b)) r.Runner.data)
           );
         ]
       else [])
    @
    match validated with
    | None -> []
    | Some ok -> [ ("validated", Jsonx.Bool ok) ])

(* ----- the request pipeline ----- *)

type outcome = {
  o_result : Runner.gpu_result;
  o_plan : string;  (* hit | miss | bypass *)
  o_stageable : bool;
  o_search_s : float;
  o_stage_s : float;
  o_sim_s : float;
}

let plan_key t ~strategy ~model ~engine prog resolved =
  Canon.digest
    (String.concat "|"
       [
         Canon.prog_key ~params:resolved prog;
         t.device.Ppat_gpu.Device.dname;
         Strategy.name strategy;
         Cost_model.name model;
         Interp.engine_name engine;
         (if t.opts.Ppat_codegen.Lower.shuffle then "shfl" else "smem");
       ])

let execute t (rq : req) (app : A.App.t) data =
  let prog = app.A.App.prog and params = app.A.App.params in
  let attr = rq.rq_profile in
  let cold ~use_memo ~status () =
    let t0 = now () in
    let decisions =
      Runner.decide_all ~model:rq.rq_model
        ?memo:(if use_memo then Some t.memo else None)
        ~opts:t.opts t.device prog params rq.rq_strategy
    in
    let search_s = now () -. t0 in
    let t1 = now () in
    let st =
      Runner.stage ~engine:rq.rq_engine ~sim_jobs:rq.rq_sim_jobs ~attr
        ~opts:t.opts ~params t.device prog ~decisions data
    in
    let wall = now () -. t1 in
    ( decisions,
      st,
      {
        o_result = st.Runner.st_result;
        o_plan = status;
        o_stageable = st.Runner.st_plan <> None;
        o_search_s = search_s;
        o_stage_s = st.Runner.st_stage_seconds;
        o_sim_s = Float.max 0. (wall -. st.Runner.st_stage_seconds);
      } )
  in
  if rq.rq_no_cache then
    let _, _, o = cold ~use_memo:false ~status:"bypass" () in
    o
  else begin
    let key =
      plan_key t ~strategy:rq.rq_strategy ~model:rq.rq_model
        ~engine:rq.rq_engine prog (A.App.resolved_params app)
    in
    let fill status =
      let decisions, st, o = cold ~use_memo:true ~status () in
      Lru.put t.plans key
        {
          pe_plan = st.Runner.st_plan;
          pe_why = st.Runner.st_unstageable;
          pe_decisions = decisions;
        };
      o
    in
    match Lru.find t.plans key with
    | None -> fill "miss"
    | Some { pe_plan = Some plan; _ } -> (
      let t0 = now () in
      match Runner.replay ~sim_jobs:rq.rq_sim_jobs ~attr plan data with
      | Ok r ->
        {
          o_result = r;
          o_plan = "hit";
          o_stageable = true;
          o_search_s = 0.;
          o_stage_s = 0.;
          o_sim_s = now () -. t0;
        }
      | Error _ ->
        (* the cached plan no longer fits this request's data (an app
           generator changed shape under us) — restage and replace *)
        fill "miss")
    | Some { pe_plan = None; pe_decisions; _ } ->
      (* known unstageable: the search is still memoised (and its result
         cached here), but every request pays staging — that IS the cold
         execution for such programs, so the answer stays faithful *)
      let t0 = now () in
      let st =
        Runner.stage ~engine:rq.rq_engine ~sim_jobs:rq.rq_sim_jobs ~attr
          ~opts:t.opts ~params t.device prog ~decisions:pe_decisions data
      in
      let wall = now () -. t0 in
      {
        o_result = st.Runner.st_result;
        o_plan = "hit";
        o_stageable = false;
        o_search_s = 0.;
        o_stage_s = st.Runner.st_stage_seconds;
        o_sim_s = Float.max 0. (wall -. st.Runner.st_stage_seconds);
      }
  end

let ms s = Jsonx.Float (s *. 1000.)

let handle_request t (rq : req) =
  let t0 = now () in
  let app =
    match A.Registry.find rq.rq_app with
    | Some app -> app
    | None -> fail "unknown app %S; try the \"list\" op of ppat" rq.rq_app
  in
  (* the app's own rules: an unknown name would silently run the default
     sizes, a stale derived size or a broken invariant would trap *)
  let app =
    match A.App.with_params app rq.rq_params with
    | Ok app -> app
    | Error e -> fail "app %S: %s" rq.rq_app e
  in
  let data = A.App.input_data app in
  let before = if rq.rq_profile then Some (Metrics.snapshot ()) else None in
  let o = execute t rq app data in
  let delta =
    Option.map (fun b -> Metrics.diff b (Metrics.snapshot ())) before
  in
  let validated =
    if not rq.rq_validate then None
    else begin
      let cpu =
        Runner.run_cpu ~params:app.A.App.params app.A.App.prog data
      in
      match
        Runner.check
          ~eps:(Float.max app.A.App.eps 1e-5)
          ~unordered:app.A.App.unordered app.A.App.prog
          ~expected:cpu.Runner.cpu_data ~actual:o.o_result.Runner.data
      with
      | Ok () -> Some true
      | Error _ -> Some false
    end
  in
  let total = now () -. t0 in
  let profile_fields =
    match delta with
    | None -> []
    | Some d ->
      let run =
        Record.make_run ~app:rq.rq_app
          ~strategy:(Strategy.name rq.rq_strategy)
          ~device:t.device.Ppat_gpu.Device.dname
          ~cost_model:(Cost_model.name rq.rq_model)
          ~sim_jobs:rq.rq_sim_jobs
          ~total_seconds:o.o_result.Runner.seconds o.o_result.Runner.profile
      in
      [
        ("profile", Record.json_of_run run);
        ("metrics_delta", Metrics.entries_json d);
      ]
  in
  Jsonx.Obj
    ([
       ("schema", Jsonx.Str schema);
       ("id", rq.rq_id);
       ("ok", Jsonx.Bool true);
       ( "answer",
         answer_json ~app:rq.rq_app ~buffers:rq.rq_buffers ~validated
           o.o_result );
       ( "cache",
         Jsonx.Obj
           [
             ("plan", Jsonx.Str o.o_plan);
             ("stageable", Jsonx.Bool o.o_stageable);
           ] );
       ( "timing_ms",
         Jsonx.Obj
           [
             ("total", ms total);
             ("search", ms o.o_search_s);
             ("stage", ms o.o_stage_s);
             ("sim", ms o.o_sim_s);
           ] );
     ]
    @ profile_fields)

(* ----- protocol dispatch ----- *)

let error_response ?(id = Jsonx.Null) msg =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str schema);
      ("id", id);
      ("ok", Jsonx.Bool false);
      ("error", Jsonx.Str msg);
    ]

let stats_json t =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str schema);
      ("ok", Jsonx.Bool true);
      ("op", Jsonx.Str "stats");
      ( "caches",
        Jsonx.List
          (List.map
             (fun (name, (s : Lru.stats), entries) ->
               Jsonx.Obj
                 [
                   ("cache", Jsonx.Str name);
                   ("hits", Jsonx.Float s.Lru.hits);
                   ("misses", Jsonx.Float s.Lru.misses);
                   ("evictions", Jsonx.Float s.Lru.evictions);
                   ("entries", Jsonx.Int entries);
                 ])
             (cache_stats t)) );
    ]

let ok_op op =
  Jsonx.Obj
    [ ("schema", Jsonx.Str schema); ("ok", Jsonx.Bool true);
      ("op", Jsonx.Str op) ]

(* requests that must not run on pool workers: control ops (they mutate
   server state or answer instantly) and profiled runs (the metrics delta
   needs the registry quiet) *)
let serial_only j =
  Jsonx.member "op" j <> None
  ||
  match Jsonx.member "profile" j with
  | Some (Jsonx.Bool true) -> true
  | _ -> false

let with_profile_lock t f =
  Mutex.lock t.profile_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.profile_lock) f

let rec handle_json t ~jobs j : Jsonx.t * bool =
  match Jsonx.member "op" j with
  | Some op -> (
    let id = Option.value (Jsonx.member "id" j) ~default:Jsonx.Null in
    match Jsonx.to_str op with
    | Some "ping" -> (ok_op "ping", false)
    | Some "stats" -> (stats_json t, false)
    | Some "flush" ->
      flush t;
      (ok_op "flush", false)
    | Some "shutdown" -> (ok_op "shutdown", true)
    | Some "batch" -> (
      let jobs =
        match Jsonx.member "jobs" j with
        | None | Some Jsonx.Null -> Some jobs
        | Some v -> (
          match Jsonx.to_int v with
          | Some n when n >= 1 -> Some (min n Ppat_parallel.max_jobs)
          | _ -> None)
      in
      match (jobs, Option.bind (Jsonx.member "requests" j) Jsonx.to_list) with
      | None, _ ->
        ( error_response ~id "field \"jobs\" must be a positive integer",
          false )
      | _, None ->
        (error_response ~id "batch needs a \"requests\" list", false)
      | Some jobs, Some reqs ->
        let responses, stop = handle_batch t ~jobs reqs in
        ( Jsonx.Obj
            [
              ("schema", Jsonx.Str schema);
              ("id", id);
              ("ok", Jsonx.Bool true);
              ("op", Jsonx.Str "batch");
              ("responses", Jsonx.List responses);
            ],
          stop ))
    | _ ->
      ( error_response ~id "unknown op (ping|stats|flush|shutdown|batch)",
        false ))
  | None ->
    let id = Option.value (Jsonx.member "id" j) ~default:Jsonx.Null in
    let resp =
      match req_of_json j with
      | exception (Bad_request msg | Ppat_gpu.Tuning.Bad_env msg) ->
        error_response ~id msg
      | rq -> (
        let run () =
          if rq.rq_profile then
            with_profile_lock t (fun () -> handle_request t rq)
          else handle_request t rq
        in
        match run () with
        | r -> r
        | exception Bad_request msg -> error_response ~id msg
        | exception e ->
          error_response ~id
            (Printf.sprintf "request failed: %s" (Printexc.to_string e)))
    in
    (resp, false)

and handle_batch t ~jobs jsons =
  let n = List.length jsons in
  let items = Array.of_list jsons in
  let out = Array.make n Jsonx.Null in
  let stop = ref false in
  (* profiled requests and control ops run serially on this domain, in
     request order; everything else fans out over the pool with its
     output captured per worker domain *)
  let par =
    Array.of_list
      (List.filter (fun i -> not (serial_only items.(i))) (List.init n Fun.id))
  in
  ignore
    (Ppat_parallel.pool_run ~jobs (Array.length par) (fun k ->
         let i = par.(k) in
         let resp = ref Jsonx.Null in
         let printed =
           Ppat_parallel.with_captured (fun () ->
               let r, _ = handle_json t ~jobs:1 items.(i) in
               resp := r)
         in
         out.(i) <-
           (match (!resp, printed) with
           | Jsonx.Obj fields, p when p <> "" ->
             Jsonx.Obj (fields @ [ ("captured", Jsonx.Str p) ])
           | r, _ -> r)));
  Array.iteri
    (fun i j ->
      if serial_only j then begin
        let r, s = handle_json t ~jobs j in
        out.(i) <- r;
        if s then stop := true
      end)
    items;
  (Array.to_list out, !stop)

let default_jobs = function
  | Some j -> max 1 (min j Ppat_parallel.max_jobs)
  | None -> Ppat_parallel.default_jobs ()

let handle_line' t ~jobs line =
  if String.trim line = "" then (None, false)
  else
    match Jsonx.of_string line with
    | Error e ->
      (Some (error_response (Printf.sprintf "bad JSON: %s" e)), false)
    | Ok j ->
      let r, stop = handle_json t ~jobs j in
      (Some r, stop)

let handle_line t line =
  let r, stop = handle_line' t ~jobs:(default_jobs None) line in
  ( Jsonx.to_string ~minify:true
      (Option.value r ~default:(error_response "empty request")),
    stop )

let handle_lines t ~jobs lines =
  let jsons =
    List.map
      (fun line ->
        match Jsonx.of_string line with Ok j -> `Ok j | Error e -> `Err e)
      lines
  in
  let oks = List.filter_map (function `Ok j -> Some j | `Err _ -> None) jsons in
  let responses, stop = handle_batch t ~jobs oks in
  let rec weave jsons responses =
    match (jsons, responses) with
    | [], _ -> []
    | `Err e :: rest, resps ->
      error_response (Printf.sprintf "bad JSON: %s" e) :: weave rest resps
    | `Ok _ :: rest, r :: resps -> r :: weave rest resps
    | `Ok _ :: _, [] -> assert false
  in
  (List.map (Jsonx.to_string ~minify:true) (weave jsons responses), stop)

let serve_stdin ?jobs t =
  let jobs = default_jobs jobs in
  let stop = ref false in
  (try
     while not !stop do
       let line = input_line stdin in
       let r, s = handle_line' t ~jobs line in
       (match r with
       | Some r ->
         print_string (Jsonx.to_string ~minify:true r);
         print_newline ();
         Stdlib.flush Stdlib.stdout
       | None -> ());
       if s then stop := true
     done
   with End_of_file -> ());
  Stdlib.flush Stdlib.stdout

let serve_socket ?jobs t path =
  let jobs = default_jobs jobs in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      (* connections one at a time, each with the stdin line protocol; a
         shutdown op ends the loop *)
      let stop = ref false in
      while not !stop do
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try
           let eof = ref false in
           while not (!eof || !stop) do
             match input_line ic with
             | line ->
               let r, s = handle_line' t ~jobs line in
               (match r with
               | Some r ->
                 output_string oc (Jsonx.to_string ~minify:true r);
                 output_char oc '\n';
                 Stdlib.flush oc
               | None -> ());
               if s then stop := true
             | exception End_of_file -> eof := true
           done
         with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
