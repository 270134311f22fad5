(* The reference interpreter: pattern semantics checked against directly
   computed expectations. *)
open Ppat_ir
module I = Ppat_cpu.Interp_ref

let run = I.run

let fbuf data name =
  match List.assoc name data with Host.F a -> a | _ -> assert false

let ibuf data name =
  match List.assoc name data with Host.I a -> a | _ -> assert false

let prog ?(defaults = []) buffers steps =
  { Pat.pname = "t"; defaults; buffers; steps }

let fout n = Pat.buffer "out" Ty.F64 [ Ty.Const n ] Pat.Output

let test_map () =
  let b = Builder.create () in
  let top =
    Builder.map b ~size:(Pat.Sconst 8) (fun ix ->
        ([], Exp.Infix.(i2f ix * f 2.)))
  in
  let data, _ = run (prog [ fout 8 ] [ Pat.Launch { bind = Some "out"; pat = top } ]) [] in
  Alcotest.(check (array (float 0.))) "doubled"
    (Array.init 8 (fun i -> float_of_int (2 * i)))
    (fbuf data "out")

let test_reduce_ops () =
  let check name r input expected =
    let b = Builder.create () in
    let top =
      Builder.reduce b ~r ~size:(Pat.Sconst (Array.length input)) (fun i ->
          ([], Exp.Read ("src", [ i ])))
    in
    let p =
      prog
        [ Pat.buffer "src" Ty.F64 [ Ty.Const (Array.length input) ] Pat.Input;
          fout 1 ]
        [ Pat.Launch { bind = Some "out"; pat = top } ]
    in
    let data, _ = run p [ ("src", Host.F input) ] in
    Alcotest.(check (float 1e-12)) name expected (fbuf data "out").(0)
  in
  check "sum" Pat.sum_reducer [| 1.; 2.; 3.; 4. |] 10.;
  check "max" Pat.max_reducer [| 1.; 9.; 3. |] 9.;
  check "min" Pat.min_reducer [| 5.; -2.; 3. |] (-2.)

let test_arg_min () =
  let b = Builder.create () in
  let top =
    Builder.arg_min b ~size:(Pat.Sconst 5) (fun i ->
        ([], Exp.Read ("src", [ i ])))
  in
  let p =
    prog
      [ Pat.buffer "src" Ty.F64 [ Ty.Const 5 ] Pat.Input;
        Pat.buffer "out" Ty.I32 [ Ty.Const 1 ] Pat.Output ]
      [ Pat.Launch { bind = Some "out"; pat = top } ]
  in
  let data, _ = run p [ ("src", Host.F [| 3.; 1.; 5.; 1.; 2. |]) ] in
  (* ties resolve to the first index *)
  Alcotest.(check int) "argmin" 1 (ibuf data "out").(0)

let test_filter () =
  let b = Builder.create () in
  let top =
    Builder.filter b ~size:(Pat.Sconst 10)
      ~pred:(fun ix -> Exp.Infix.(ix % i 2 = i 0))
      (fun ix -> Exp.Infix.(i2f ix))
  in
  let p =
    prog
      [
        fout 10;
        Pat.buffer "out_count" Ty.I32 [ Ty.Const 1 ] Pat.Output;
      ]
      [ Pat.Launch { bind = Some "out"; pat = top } ]
  in
  let data, _ = run p [] in
  Alcotest.(check int) "count" 5 (ibuf data "out_count").(0);
  Alcotest.(check (array (float 0.))) "kept in order"
    [| 0.; 2.; 4.; 6.; 8.; 0.; 0.; 0.; 0.; 0. |]
    (fbuf data "out")

let test_group_by () =
  let b = Builder.create () in
  let top =
    Builder.group_by b ~size:(Pat.Sconst 6) ~num_keys:(Ty.Const 3)
      ~key:(fun ix -> Exp.Read ("keys", [ ix ]))
      (fun ix -> Exp.Infix.(i2f ix))
  in
  let p =
    prog
      [
        Pat.buffer "keys" Ty.I32 [ Ty.Const 6 ] Pat.Input;
        fout 6;
        Pat.buffer "out_counts" Ty.I32 [ Ty.Const 3 ] Pat.Output;
        Pat.buffer "out_offsets" Ty.I32 [ Ty.Const 3 ] Pat.Output;
      ]
      [ Pat.Launch { bind = Some "out"; pat = top } ]
  in
  let data, _ = run p [ ("keys", Host.I [| 2; 0; 1; 0; 2; 0 |]) ] in
  Alcotest.(check (array int)) "counts" [| 3; 1; 2 |] (ibuf data "out_counts");
  Alcotest.(check (array int)) "offsets" [| 0; 3; 4 |] (ibuf data "out_offsets");
  Alcotest.(check (array (float 0.))) "grouped values"
    [| 1.; 3.; 5.; 2.; 0.; 4. |]
    (fbuf data "out")

let test_while_assign () =
  (* loop-carried scalars via Assign: integer log2 *)
  let b = Builder.create () in
  let open Exp.Infix in
  let top =
    Builder.map b ~size:(Pat.Sconst 5) (fun ix ->
        ( [
            Pat.Let ("x", (i 1 + ix) * i 8);
            Pat.Let ("steps", Exp.Int 0);
            Pat.While
              ( v "x" > i 1,
                [
                  Pat.Assign ("x", v "x" / i 2);
                  Pat.Assign ("steps", v "steps" + i 1);
                ] );
          ],
          i2f (v "steps") ))
  in
  let data, _ =
    run (prog [ fout 5 ] [ Pat.Launch { bind = Some "out"; pat = top } ]) []
  in
  Alcotest.(check (array (float 0.))) "log2"
    [| 3.; 4.; 4.; 5.; 5. |]
    (fbuf data "out")

let test_host_loop_swap () =
  (* ping-pong increment: after k rounds "cur" holds k *)
  let b = Builder.create () in
  let open Exp.Infix in
  let top =
    Builder.foreach b ~size:(Pat.Sconst 4) (fun i0 ->
        [ Pat.Store ("nxt", [ i0 ], read "cur" [ i0 ] + f 1.) ])
  in
  let p =
    prog
      [
        Pat.buffer "cur" Ty.F64 [ Ty.Const 4 ] Pat.Input;
        Pat.buffer "nxt" Ty.F64 [ Ty.Const 4 ] Pat.Output;
      ]
      [
        Pat.Host_loop
          {
            var = "k";
            count = Ty.Const 5;
            body =
              [ Pat.Launch { bind = None; pat = top }; Pat.Swap ("cur", "nxt") ];
          };
      ]
  in
  let data, _ = run p [] in
  Alcotest.(check (array (float 0.))) "five rounds" (Array.make 4 5.)
    (fbuf data "cur")

let test_while_flag () =
  (* count down a device flag: body sets flag while counter < 3 *)
  let b = Builder.create () in
  let open Exp.Infix in
  let top =
    Builder.foreach b ~size:(Pat.Sconst 1) (fun _ ->
        [
          Pat.Store ("n", [ i 0 ], read "n" [ i 0 ] + i 1);
          Pat.If
            (read "n" [ i 0 ] < i 3, [ Pat.Store ("flag", [ i 0 ], i 1) ], []);
        ])
  in
  let p =
    prog
      [
        Pat.buffer "n" Ty.I32 [ Ty.Const 1 ] Pat.Output;
        Pat.buffer "flag" Ty.I32 [ Ty.Const 1 ] Pat.Temp;
      ]
      [
        Pat.While_flag
          { flag = "flag"; max_iter = 10;
            body = [ Pat.Launch { bind = None; pat = top } ] };
      ]
  in
  let data, _ = run p [] in
  Alcotest.(check int) "three rounds" 3 (ibuf data "n").(0)

let test_counts () =
  let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:16 ~c:32 () in
  let _, counts = run app.prog (Ppat_apps.App.input_data app) in
  (* at least one op and 8 bytes per matrix element *)
  Alcotest.(check bool) "ops counted" true (counts.I.ops >= 512.);
  Alcotest.(check bool) "bytes counted" true (counts.I.bytes >= 512. *. 8.)

(* every fault is one typed trap naming the buffer or variable and, where
   there is one, the index *)
let test_errors () =
  let expect name ?index site p data =
    match run p data with
    | _ -> Alcotest.failf "%s: expected a trap" name
    | exception I.Trap (s, msg) ->
      Alcotest.(check string) (name ^ ": named site") site s.I.name;
      Alcotest.(check (option int)) (name ^ ": index") index s.I.index;
      (* the registered printer is what serve's "request failed" shows *)
      let shown = Printexc.to_string (I.Trap (s, msg)) in
      Alcotest.(check bool)
        (name ^ ": printed with its site: " ^ shown)
        true
        (Astring_like.contains shown site)
  in
  let b = Builder.create () in
  let oob =
    Builder.foreach b ~size:(Pat.Sconst 4) (fun i0 ->
        [ Pat.Store ("out", [ Exp.Infix.(i0 + i 100) ], Exp.Float 0.) ])
  in
  expect "out of bounds" "out" ~index:100
    (prog [ fout 4 ] [ Pat.Launch { bind = None; pat = oob } ])
    [];
  (* a local array's atomic accumulation past its end *)
  let local_atomic =
    Builder.foreach b ~size:(Pat.Sconst 2) (fun _ ->
        [
          Builder.bind "tmp"
            (Builder.map b ~size:(Pat.Sconst 4) (fun _ -> ([], Exp.Float 1.)));
          Pat.Atomic_add ("tmp", [ Exp.Int 9 ], Exp.Float 1.);
        ])
  in
  expect "local atomic_add out of range" "tmp" ~index:9
    (prog [ fout 4 ] [ Pat.Launch { bind = None; pat = local_atomic } ])
    [];
  expect "swap of an unknown buffer" "nope"
    (prog [ fout 4 ] [ Pat.Swap ("out", "nope") ])
    [];
  expect "while_flag on an unknown buffer" "flag"
    (prog [ fout 4 ]
       [ Pat.While_flag { flag = "flag"; max_iter = 3; body = [] } ])
    [];
  expect "unbound variable" "ghost"
    (prog [ fout 4 ]
       [
         Pat.Launch
           {
             bind = Some "out";
             pat =
               Builder.map b ~size:(Pat.Sconst 4) (fun _ ->
                   ([], Exp.Var "ghost"));
           };
       ])
    [];
  (* a fault in code that never runs is no fault *)
  let dead =
    Builder.foreach b ~size:(Pat.Sconst 4) (fun _ ->
        [ Pat.If (Exp.Bool false, [ Pat.Store ("out", [], Exp.Var "ghost") ], []) ])
  in
  ignore (run (prog [ fout 4 ] [ Pat.Launch { bind = None; pat = dead } ]) [])

let tests =
  [
    Alcotest.test_case "map" `Quick test_map;
    Alcotest.test_case "reduce operators" `Quick test_reduce_ops;
    Alcotest.test_case "arg_min ties" `Quick test_arg_min;
    Alcotest.test_case "filter order and count" `Quick test_filter;
    Alcotest.test_case "group_by segments" `Quick test_group_by;
    Alcotest.test_case "while with assign" `Quick test_while_assign;
    Alcotest.test_case "host loop and swap" `Quick test_host_loop_swap;
    Alcotest.test_case "while_flag" `Quick test_while_flag;
    Alcotest.test_case "op counting" `Quick test_counts;
    Alcotest.test_case "errors" `Quick test_errors;
  ]
