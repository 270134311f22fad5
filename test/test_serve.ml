(* The mapping-service execution paths: staged plans must replay
   bit-identically to cold runs (same statistics, same buffers) across
   engines and simulator worker counts, the search memo must not change
   decisions, and the serve protocol must answer repeats from cache with
   the exact cold answer. *)
open Ppat_ir
module Runner = Ppat_harness.Runner
module Interp = Ppat_kernel.Interp
module Stats = Ppat_gpu.Stats
module Strategy = Ppat_core.Strategy
module A = Ppat_apps

let dev = Ppat_gpu.Device.k20c

let buf_equal (a : Host.buf) (b : Host.buf) =
  match (a, b) with
  | Host.F x, Host.F y -> compare x y = 0
  | Host.I x, Host.I y -> x = y
  | _ -> false

let data_equal (a : Host.data) (b : Host.data) =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, b1) (n2, b2) -> String.equal n1 n2 && buf_equal b1 b2)
       a b

let result_equal (a : Runner.gpu_result) (b : Runner.gpu_result) =
  a.Runner.kernels = b.Runner.kernels
  && Stats.equal a.Runner.stats b.Runner.stats
  && data_equal a.Runner.data b.Runner.data
  && List.for_all2
       (fun (x : Ppat_profile.Record.kernel) (y : Ppat_profile.Record.kernel) ->
         x.Ppat_profile.Record.kname = y.Ppat_profile.Record.kname
         && Stats.equal x.Ppat_profile.Record.stats y.Ppat_profile.Record.stats)
       a.Runner.profile b.Runner.profile

(* small instances of apps covering every host-step shape: plain launches,
   host loops (gaussian), buffer swaps (hotspot ping-pong), flag loops
   (bfs), multi-kernel split patterns (sum_cols) *)
let suite () =
  [
    ("sum_rows", A.Sum_rows_cols.sum_rows ~r:64 ~c:48 ());
    ("sum_cols", A.Sum_rows_cols.sum_cols ~r:48 ~c:32 ());
    ("gaussian", A.Gaussian.app ~n:24 A.Gaussian.R);
    ("hotspot", A.Hotspot.app ~n:24 ~steps:2 A.Hotspot.R);
    ("bfs", A.Bfs.app ~nodes:256 ~avg_degree:4 ());
    ("gemm", A.Gemm.app ~m:24 ~n:16 ~k:12 ());
  ]

(* a same-shaped but different workload, to prove replay really recomputes *)
let perturb (data : Host.data) : Host.data =
  List.map
    (fun (n, b) ->
      ( n,
        match b with
        | Host.F a ->
          let c = Array.copy a in
          let len = Array.length c in
          for i = 0 to (len / 2) - 1 do
            let t = c.(i) in
            c.(i) <- c.(len - 1 - i);
            c.(len - 1 - i) <- t
          done;
          Host.F c
        | Host.I a -> Host.I (Array.copy a) ))
    data

let stage_app ?sim_jobs ~engine (app : A.App.t) data =
  let decisions =
    Runner.decide_all dev app.A.App.prog app.A.App.params Strategy.Auto
  in
  Runner.stage ~engine ?sim_jobs ~params:app.A.App.params dev app.A.App.prog
    ~decisions data

let check_app ~engine ~sim_jobs name (app : A.App.t) =
  let data = A.App.input_data app in
  let cold =
    Runner.run_gpu ~engine ~sim_jobs ~params:app.A.App.params dev
      app.A.App.prog Strategy.Auto data
  in
  let st = stage_app ~sim_jobs ~engine app data in
  Alcotest.(check bool)
    (name ^ ": staging run equals cold run")
    true
    (result_equal cold st.Runner.st_result);
  match st.Runner.st_plan with
  | None ->
    Alcotest.failf "%s: expected a stageable program (%s)" name
      (Option.value st.Runner.st_unstageable ~default:"?")
  | Some plan ->
    (match Runner.replay ~sim_jobs plan data with
     | Error e -> Alcotest.failf "%s: replay failed: %s" name e
     | Ok warm ->
       Alcotest.(check bool)
         (name ^ ": replay equals cold run")
         true (result_equal cold warm));
    (* fresh data through the same plan vs a fresh cold run *)
    let data2 = perturb data in
    let cold2 =
      Runner.run_gpu ~engine ~sim_jobs ~params:app.A.App.params dev
        app.A.App.prog Strategy.Auto data2
    in
    (match Runner.replay ~sim_jobs plan data2 with
     | Error e -> Alcotest.failf "%s: replay (new data) failed: %s" name e
     | Ok warm2 ->
       Alcotest.(check bool)
         (name ^ ": replay with new data equals cold run on it")
         true (result_equal cold2 warm2));
    (* and the plan still answers the original data afterwards *)
    (match Runner.replay ~sim_jobs plan data with
     | Error e -> Alcotest.failf "%s: re-replay failed: %s" name e
     | Ok warm3 ->
       Alcotest.(check bool)
         (name ^ ": plan is reusable after other data")
         true (result_equal cold warm3))

let test_replay_identity ~engine ~sim_jobs () =
  List.iter (fun (name, app) -> check_app ~engine ~sim_jobs name app) (suite ())

let test_memo_same_decisions () =
  let memo = Ppat_core.Search_memo.create () in
  List.iter
    (fun (name, (app : A.App.t)) ->
      let plain =
        Runner.decide_all dev app.A.App.prog app.A.App.params Strategy.Auto
      in
      (* twice through the memo: a cold fill and a hit *)
      let first =
        Runner.decide_all ~memo dev app.A.App.prog app.A.App.params
          Strategy.Auto
      in
      let second =
        Runner.decide_all ~memo dev app.A.App.prog app.A.App.params
          Strategy.Auto
      in
      let same a b =
        List.for_all2
          (fun (p1, (d1 : Strategy.decision)) (p2, (d2 : Strategy.decision)) ->
            p1 = p2
            && Ppat_core.Mapping.equal d1.Strategy.mapping d2.Strategy.mapping
            && d1.Strategy.score = d2.Strategy.score)
          a b
      in
      Alcotest.(check bool) (name ^ ": memo fill = plain") true (same plain first);
      Alcotest.(check bool) (name ^ ": memo hit = plain") true (same plain second))
    (suite ())

(* ----- the serve protocol itself: cache-hit answers must be bit-identical
   (stats, digest, buffers) to cold answers under either engine and any
   sim_jobs; control ops and malformed requests must answer sanely ----- *)

module Serve = Ppat_serve.Serve
module J = Ppat_profile.Jsonx

let parse_resp name s =
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: unparseable response %s: %s" name e s

let get path j =
  List.fold_left (fun j f -> Option.bind j (J.member f)) (Some j) path

let get_str name path j =
  match Option.bind (get path j) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "%s: missing %s" name (String.concat "." path)

let assert_ok name j =
  match get [ "ok" ] j with
  | Some (J.Bool true) -> ()
  | _ -> Alcotest.failf "%s: not ok: %s" name (J.to_string ~minify:true j)

let request ?(extra = []) app params ~engine ~sim_jobs =
  J.to_string ~minify:true
    (J.Obj
       ([
          ("app", J.Str app);
          ("params", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) params));
          ("engine", J.Str engine);
          ("sim_jobs", J.Int sim_jobs);
          ("buffers", J.Bool true);
          ("validate", J.Bool true);
        ]
       @ extra))

let serve_one name server line =
  let resp, stop = Serve.handle_line server line in
  Alcotest.(check bool) (name ^ ": no shutdown") false stop;
  let j = parse_resp name resp in
  assert_ok name j;
  j

let test_protocol_identity ~engine () =
  List.iter
    (fun (app, params) ->
      let server = Serve.create () in
      let name = "serve/" ^ app in
      (* cold fill at sim_jobs 1, cache hit at sim_jobs 4, then a
         cache-bypassed rerun: three answers, one bit pattern *)
      let cold =
        serve_one name server (request app params ~engine ~sim_jobs:1)
      in
      let hit =
        serve_one name server (request app params ~engine ~sim_jobs:4)
      in
      let bypass =
        serve_one name server
          (request app params ~engine ~sim_jobs:1
             ~extra:[ ("no_cache", J.Bool true) ])
      in
      Alcotest.(check string)
        (name ^ ": cold plan status")
        "miss"
        (get_str name [ "cache"; "plan" ] cold);
      Alcotest.(check string)
        (name ^ ": repeat is a plan hit")
        "hit"
        (get_str name [ "cache"; "plan" ] hit);
      Alcotest.(check string)
        (name ^ ": no_cache bypasses")
        "bypass"
        (get_str name [ "cache"; "plan" ] bypass);
      let answer j =
        match get [ "answer" ] j with
        | Some a -> a
        | None -> Alcotest.failf "%s: no answer" name
      in
      Alcotest.(check bool)
        (name ^ ": hit answer bit-identical to cold (stats + buffers)")
        true
        (J.equal (answer cold) (answer hit));
      Alcotest.(check bool)
        (name ^ ": bypass answer bit-identical to cold")
        true
        (J.equal (answer cold) (answer bypass));
      match get [ "answer"; "validated" ] cold with
      | Some (J.Bool true) -> ()
      | _ -> Alcotest.failf "%s: cold answer failed CPU validation" name)
    [
      ("sum_rows", [ ("R", 48); ("C", 32) ]);
      ("hotspot", [ ("N", 16); ("NM1", 15); ("STEPS", 2) ]);
    ]

let test_protocol_ops () =
  let server = Serve.create () in
  let line = request "sum_rows" [ ("R", 32); ("C", 16) ] ~engine:"compiled"
      ~sim_jobs:1
  in
  ignore (serve_one "ops" server line);
  ignore (serve_one "ops" server line);
  let stats = serve_one "ops" server {|{"op":"stats"}|} in
  let plan_hits =
    match Option.bind (get [ "caches" ] stats) J.to_list with
    | Some caches ->
      List.fold_left
        (fun acc c ->
          if get [ "cache" ] c = Some (J.Str "plan_cache") then
            Option.value ~default:acc (Option.bind (get [ "hits" ] c) J.to_float)
          else acc)
        0.0 caches
    | None -> 0.0
  in
  Alcotest.(check bool) "stats reports plan hits" true (plan_hits >= 1.0);
  ignore (serve_one "ops" server {|{"op":"flush"}|});
  let after_flush = serve_one "ops" server line in
  Alcotest.(check string) "flush forgets plans" "miss"
    (get_str "ops" [ "cache"; "plan" ] after_flush);
  ignore (serve_one "ops" server {|{"op":"ping"}|});
  let _, stop = Serve.handle_line server {|{"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown stops" true stop;
  (* malformed requests answer ok:false without raising *)
  List.iter
    (fun (what, line) ->
      let resp, stop = Serve.handle_line server line in
      Alcotest.(check bool) (what ^ ": no shutdown") false stop;
      match get [ "ok" ] (parse_resp what resp) with
      | Some (J.Bool false) -> ()
      | _ -> Alcotest.failf "%s: expected ok:false, got %s" what resp)
    [
      ("bad json", "{nope");
      ("unknown app", {|{"app":"no_such_app"}|});
      ("unknown param", {|{"app":"sum_rows","params":{"bogus":1}}|});
      ("negative param", {|{"app":"sum_rows","params":{"R":-5}}|});
      ("unknown op", {|{"op":"frobnicate"}|});
      ("batch jobs not an int", {|{"op":"batch","jobs":"x","requests":[]}|});
    ];
  (* a negative size is refused by name before it reaches the pipeline *)
  let resp, _ =
    Serve.handle_line server {|{"app":"sum_rows","params":{"R":-5}}|}
  in
  match get [ "error" ] (parse_resp "negative param" resp) with
  | Some (J.Str e) ->
    Alcotest.(check bool)
      (Printf.sprintf "negative param named (got %S)" e)
      true
      (Astring_like.contains e {|"R"|}
      && Astring_like.contains e "non-negative")
  | _ -> Alcotest.failf "negative param: expected an error, got %s" resp

(* a request without "engine" runs the PPAT_ENGINE default, like the CLI:
   under PPAT_ENGINE=reference it shares its plan with an explicit
   reference request and not with a compiled one *)
let test_engine_default () =
  Test_sweep.with_env "PPAT_ENGINE" "reference" ~default:"compiled" (fun () ->
      let server = Serve.create () in
      let line extra =
        J.to_string ~minify:true
          (J.Obj
             ([
                ("app", J.Str "sum_rows");
                ("params", J.Obj [ ("R", J.Int 24); ("C", J.Int 16) ]);
                ("sim_jobs", J.Int 1);
              ]
             @ extra))
      in
      let plan extra =
        get_str "engine default" [ "cache"; "plan" ]
          (serve_one "engine default" server (line extra))
      in
      Alcotest.(check string) "defaulted request stages" "miss" (plan []);
      Alcotest.(check string) "explicit reference reuses its plan" "hit"
        (plan [ ("engine", J.Str "reference") ]);
      Alcotest.(check string) "explicit compiled is another plan" "miss"
        (plan [ ("engine", J.Str "compiled") ]))

(* a malformed PPAT_* variable a request falls back on is a named
   request error; the server keeps answering, and a request that names
   the field never reads the variable *)
let test_bad_env () =
  let server = Serve.create () in
  let line extra =
    J.to_string ~minify:true
      (J.Obj
         ([
            ("app", J.Str "sum_rows");
            ("params", J.Obj [ ("R", J.Int 24); ("C", J.Int 16) ]);
          ]
         @ extra))
  in
  List.iter
    (fun (var, bad, default, field) ->
      Test_sweep.with_env var bad ~default (fun () ->
          let resp, stop = Serve.handle_line server (line []) in
          Alcotest.(check bool) (var ^ ": no shutdown") false stop;
          let j = parse_resp var resp in
          Alcotest.(check bool) (var ^ ": an error answer") true
            (get [ "ok" ] j = Some (J.Bool false));
          let e = get_str var [ "error" ] j in
          Alcotest.(check bool)
            (Printf.sprintf "%s named (got %S)" var e)
            true (Astring_like.contains e var);
          ignore (serve_one (var ^ ": field given") server (line [ field ]))))
    [
      ("PPAT_COST_MODEL", "psychic", "soft", ("cost_model", J.Str "soft"));
      ("PPAT_ENGINE", "turbo", "compiled", ("engine", J.Str "compiled"));
      ("PPAT_SIM_JOBS", "x", "1", ("sim_jobs", J.Int 1));
    ];
  (* the lowering options are read once, when the server is created *)
  Test_sweep.with_env "PPAT_SHUFFLE" "maybe" ~default:"0" (fun () ->
      match Serve.create () with
      | exception Ppat_gpu.Tuning.Bad_env e ->
        Alcotest.(check bool) "PPAT_SHUFFLE named" true
          (Astring_like.contains e "PPAT_SHUFFLE")
      | _ -> Alcotest.fail "PPAT_SHUFFLE=maybe accepted at create")

(* the shuffle bit is part of every cache key that can outlive a run:
   the search memo's nest key and the server's plan key differ exactly
   when it differs *)
let test_keys_cover_shuffle () =
  let app = A.Sum_rows_cols.sum_rows () in
  let prog = app.A.App.prog in
  let n =
    match prog.Pat.steps with Pat.Launch n :: _ -> n | _ -> assert false
  in
  let params = Runner.analysis_params prog app.A.App.params in
  let nest ?shuffle () =
    Ppat_core.Canon.nest_key ~params ?bind:n.Pat.bind ?shuffle dev prog
      n.Pat.pat
  in
  let memo shuffle =
    Ppat_core.Search_memo.key ~model:Ppat_core.Cost_model.Soft ~shuffle
      ~params ?bind:n.Pat.bind dev prog n.Pat.pat Strategy.Auto
  in
  let plan shuffle =
    let server =
      Test_sweep.with_env "PPAT_SHUFFLE" (string_of_bool shuffle)
        ~default:"0" Serve.create
    in
    Serve.plan_key server ~strategy:Strategy.Auto
      ~model:Ppat_core.Cost_model.Soft ~engine:Interp.Compiled prog
      (A.App.resolved_params app)
  in
  Alcotest.(check string) "nest key defaults to shuffle off"
    (nest ~shuffle:false ()) (nest ());
  List.iter
    (fun (a, b) ->
      let tag what = Printf.sprintf "%s keys, shuffle %b vs %b" what a b in
      Alcotest.(check bool) (tag "nest") (a = b)
        (nest ~shuffle:a () = nest ~shuffle:b ());
      Alcotest.(check bool) (tag "memo") (a = b) (memo a = memo b);
      Alcotest.(check bool) (tag "plan") (a = b) (plan a = plan b))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_protocol_batch () =
  let server = Serve.create () in
  let a = request "sum_rows" [ ("R", 32); ("C", 16) ] ~engine:"compiled"
      ~sim_jobs:1
  and b = request "sum_cols" [ ("R", 24); ("C", 16) ] ~engine:"compiled"
      ~sim_jobs:1
  in
  let lines = [ a; a; b; "{broken"; a ] in
  let responses, stop = Serve.handle_lines server ~jobs:4 lines in
  Alcotest.(check bool) "batch: no shutdown" false stop;
  Alcotest.(check int) "batch: one response per request" (List.length lines)
    (List.length responses);
  let js = List.map (parse_resp "batch") responses in
  let digest i = get_str "batch" [ "answer"; "digest" ] (List.nth js i) in
  assert_ok "batch[0]" (List.nth js 0);
  Alcotest.(check string) "batch: repeats answer identically" (digest 0)
    (digest 1);
  Alcotest.(check string) "batch: last repeat identical too" (digest 0)
    (digest 4);
  assert_ok "batch[2]" (List.nth js 2);
  (match get [ "ok" ] (List.nth js 3) with
   | Some (J.Bool false) -> ()
   | _ -> Alcotest.fail "batch: broken line must answer ok:false");
  Alcotest.(check bool) "batch: sum_rows and sum_cols differ" true
    (digest 0 <> digest 2)

let test_protocol_profile () =
  let server = Serve.create () in
  let line =
    request "sum_rows" [ ("R", 32); ("C", 16) ] ~engine:"compiled" ~sim_jobs:1
      ~extra:[ ("profile", J.Bool true) ]
  in
  let j = serve_one "profile" server line in
  (match get [ "profile"; "schema" ] j with
   | Some (J.Str s) ->
     Alcotest.(check string) "profile schema" "ppat-profile/4" s
   | _ -> Alcotest.fail "profiled request carries a ppat-profile/4 record");
  match Option.bind (get [ "metrics_delta" ] j) J.to_list with
  | Some entries ->
    (* the request simulates kernels, so its own delta cannot be empty *)
    Alcotest.(check bool) "metrics delta is per-request and non-empty" true
      (List.length entries > 0)
  | None -> Alcotest.fail "profiled request carries a metrics delta"

(* ----- a plan hit skips the whole amortisable front end: the counters
   the search and the staging bump move on the cold miss and stay put on
   the hit ----- *)

let test_hit_skips_search_and_staging () =
  let server = Serve.create () in
  let line =
    request "sum_rows" [ ("R", 40); ("C", 24) ] ~engine:"compiled" ~sim_jobs:1
  in
  (* the search, search-memo and staging counters one request moved *)
  let front_end status =
    let before = Ppat_metrics.Metrics.snapshot () in
    let j = serve_one "hit counters" server line in
    Alcotest.(check string) "plan status" status
      (get_str "hit counters" [ "cache"; "plan" ] j);
    Ppat_metrics.Metrics.diff before (Ppat_metrics.Metrics.snapshot ())
    |> List.filter_map (fun (e : Ppat_metrics.Metrics.entry) ->
           match List.assoc_opt "cache" e.labels with
           | Some ("search_memo" as c) -> Some c
           | _ ->
             if String.starts_with ~prefix:"search." e.name
                || String.starts_with ~prefix:"staging." e.name
             then Some e.name
             else None)
  in
  let miss = front_end "miss" in
  Alcotest.(check bool) "the miss searches and stages" true
    (List.mem "search.candidates_evaluated" miss
    && List.mem "staging.vector_stmts" miss);
  Alcotest.(check (list string)) "the hit moves none of them" [] (front_end "hit")

(* ----- parameter overrides go through the app's own rules: derived
   sizes follow their primaries, broken invariants are named errors ----- *)

let serve_error server line =
  let resp, _ = Serve.handle_line server line in
  match get [ "error" ] (parse_resp line resp) with
  | Some (J.Str e) -> e
  | _ -> Alcotest.failf "%s: expected a named error, got %s" line resp

let test_param_rules () =
  let server = Serve.create () in
  let served app params =
    serve_one app server
      (request app params ~engine:"compiled" ~sim_jobs:1)
  in
  let validated app params =
    let j = served app params in
    (match get [ "answer"; "validated" ] j with
     | Some (J.Bool true) -> ()
     | _ -> Alcotest.failf "%s: answer not validated" app);
    j
  in
  (* a primary override re-derives its dependants: the answer is the one
     an explicitly consistent request gets, at the requested size *)
  List.iter
    (fun (app, primary, derived) ->
      let a = validated app primary in
      let b = validated app (primary @ derived) in
      Alcotest.(check string)
        (app ^ ": derived = explicit")
        (get_str app [ "answer"; "digest" ] a)
        (get_str app [ "answer"; "digest" ] b))
    [
      ("hotspot", [ ("N", 8) ], [ ("NM1", 7) ]);
      ("pathfinder", [ ("C", 64); ("R", 4) ], [ ("CM1", 63) ]);
      ("srad", [ ("N", 16) ], [ ("NM1", 15); ("N2", 256) ]);
    ];
  (match get [ "answer"; "buffers"; "image" ] (served "srad" [ ("N", 16) ]) with
   | Some (J.List l) -> Alcotest.(check int) "srad runs at N2 = 16 * 16" 256 (List.length l)
   | _ -> Alcotest.fail "srad: no image buffer");
  (* every other violation is refused, naming the parameter *)
  List.iter
    (fun (app, params, named) ->
      let line = request app params ~engine:"compiled" ~sim_jobs:1 in
      let e = serve_error server line in
      Alcotest.(check bool)
        (Printf.sprintf "%s: error names %s (got %S)" app named e)
        true
        (Astring_like.contains e (Printf.sprintf "%S" named)
        && not (String.starts_with ~prefix:"request failed:" e)))
    [
      ("hotspot", [ ("N", 8); ("NM1", 63) ], "NM1");
      ("qpscd", [ ("S", 64); ("K", 32) ], "S");
      ("bfs", [ ("NODES", 64) ], "NODES");
      ("pagerank", [ ("NODES", 64) ], "NODES");
      ("gaussian", [ ("N", 16) ], "STEPS");
      ("sum_cols", [ ("R", 32); ("C", 0) ], "C");
      ("qpscd", [ ("S", 0); ("K", 8) ], "S");
    ]

(* ----- protocol fuzz: whatever the line, exactly one ppat-serve/1 answer,
   and a refusal is always a named error, never the internal-exception
   catch-all ----- *)

module Q = QCheck2

let fuzz_apps =
  [
    ("sum_rows", [ "R"; "C" ]);
    ("sum_cols", [ "R"; "C" ]);
    ("sum_weighted_rows", [ "R"; "C" ]);
    ("hotspot", [ "N" ]);
    ("pathfinder", [ "R"; "C" ]);
    ("srad", [ "N" ]);
    ("qpscd", [ "S"; "K" ]);
    ("gemm", [ "M"; "N"; "K" ]);
    ("msm_cluster", [ "T"; "KC"; "D" ]);
    ("mandelbrot", [ "H"; "W" ]);
    ("nearest_neighbor", [ "N" ]);
    ("gaussian", [ "N"; "STEPS" ]);
    ("lud", [ "N"; "STEPS" ]);
    ("bfs", [ "NODES" ]);
  ]

let gen_line =
  let open Q.Gen in
  let str s = J.Str s in
  let obj fields = return (J.to_string ~minify:true (J.Obj fields)) in
  let malformed =
    oneofl
      [ "{"; "nope"; "[1,2"; {|{"app":}|}; {|"sum_rows"|}; "42"; "[]"; "null";
        ""; "{}"; {|{"op":5}|}; {|{"op":"batch","jobs":"x","requests":[]}|};
        {|{"op":"batch","jobs":0,"requests":[]}|}; {|{"op":"batch","requests":"x"}|} ]
  in
  let wrong_typed =
    let* field, v =
      oneofl
        [ ("params", J.List [ J.Int 1 ]); ("params", J.Obj [ ("R", str "x") ]);
          ("params", J.Obj [ ("R", J.Float 1.5) ]); ("strategy", J.Int 3);
          ("engine", J.Bool true); ("cost_model", J.Int 1); ("buffers", str "yes");
          ("validate", J.Int 1); ("no_cache", J.List []); ("sim_jobs", str "2");
          ("sim_jobs", J.Int 0); ("sim_jobs", J.Int (-3)); ("profile", J.Float 0.) ]
    in
    let* app = oneofl [ J.Int 5; str "sum_rows" ] in
    obj [ ("app", app); (field, v) ]
  in
  (* a well-formed request for a registry app at sizes in [0, 32], with at
     most one bad field *)
  let sized =
    let* app, names = oneofl fuzz_apps in
    let size = frequency [ (1, return 0); (1, int_range 1 4); (2, int_range 0 32) ] in
    let* sizes = list_repeat (List.length names) size in
    let params = List.map2 (fun n v -> (n, J.Int v)) names sizes in
    let* strategy = oneofl [ "auto"; "1d"; "tbt"; "warp" ] in
    let* engine = oneofl [ "compiled"; "compiled"; "reference" ] in
    let* model = oneofl [ "soft"; "analytical"; "hybrid" ] in
    let* fault =
      oneofl
        [ None; None; None; None; Some ("app", str "no_such_app");
          Some ("strategy", str "bogus"); Some ("engine", str "bogus");
          Some ("cost_model", str "bogus");
          Some ("params", J.Obj (("BOGUS", J.Int 1) :: params));
          Some ("params", J.Obj [ (List.hd names, J.Int (-1)) ]) ]
    in
    let fields =
      [ ("app", str app); ("params", J.Obj params); ("strategy", str strategy);
        ("engine", str engine); ("cost_model", str model);
        ("validate", J.Bool true) ]
    in
    obj
      (match fault with
       | None -> fields
       | Some (k, v) -> (k, v) :: List.remove_assoc k fields)
  in
  frequency [ (1, malformed); (1, wrong_typed); (4, sized) ]

let prop_fuzz =
  let server = Serve.create () in
  Q.Test.make ~name:"serve fuzz: one answer, never an internal error" ~count:400
    ~print:Fun.id gen_line (fun line ->
      let resp, stop = Serve.handle_line server line in
      let j = parse_resp line resp in
      (not stop)
      && (not (String.contains resp '\n'))
      && get [ "schema" ] j = Some (J.Str "ppat-serve/1")
      &&
      match (get [ "ok" ] j, get [ "error" ] j) with
      | Some (J.Bool true), _ -> true
      | Some (J.Bool false), Some (J.Str e) ->
        not (String.starts_with ~prefix:"request failed:" e)
      | _ -> false)

let tests =
  [
    Alcotest.test_case "replay = cold (compiled, jobs 1)" `Quick
      (test_replay_identity ~engine:Interp.Compiled ~sim_jobs:1);
    Alcotest.test_case "replay = cold (compiled, jobs 4)" `Quick
      (test_replay_identity ~engine:Interp.Compiled ~sim_jobs:4);
    Alcotest.test_case "replay = cold (reference, jobs 1)" `Quick
      (test_replay_identity ~engine:Interp.Reference ~sim_jobs:1);
    Alcotest.test_case "search memo preserves decisions" `Quick
      test_memo_same_decisions;
    Alcotest.test_case "protocol: hit answers bit-identical (compiled)" `Quick
      (test_protocol_identity ~engine:"compiled");
    Alcotest.test_case "protocol: hit answers bit-identical (reference)" `Quick
      (test_protocol_identity ~engine:"reference");
    Alcotest.test_case "protocol: ops, flush and malformed requests" `Quick
      test_protocol_ops;
    Alcotest.test_case "protocol: engine defaults to PPAT_ENGINE" `Quick
      test_engine_default;
    Alcotest.test_case "protocol: malformed PPAT_* is a named error" `Quick
      test_bad_env;
    Alcotest.test_case "cache keys cover the shuffle bit" `Quick
      test_keys_cover_shuffle;
    Alcotest.test_case "protocol: concurrent batch" `Quick test_protocol_batch;
    Alcotest.test_case "protocol: per-request profile and metrics delta" `Quick
      test_protocol_profile;
    Alcotest.test_case "protocol: a plan hit runs no search and no staging"
      `Quick test_hit_skips_search_and_staging;
    Alcotest.test_case "protocol: app parameter rules" `Quick test_param_rules;
    QCheck_alcotest.to_alcotest prop_fuzz;
  ]
