(* Canonical digests: alpha-renamed programs must hash equal; programs
   that differ in shape, layout, parameter values or size class must not
   collide. *)
open Ppat_ir
module Canon = Ppat_core.Canon
module A = Ppat_apps

let dev = Ppat_gpu.Device.k20c

(* ----- a systematic alpha-renamer over the pattern IR: shifts pattern
   ids, suffixes every buffer / variable / label name, leaves runtime
   parameter names alone (they resolve to values either way) ----- *)

(* one suffix for both namespaces: a nested local bind is a name when
   declared but can be referenced as a Var from the enclosing yield, so
   renaming names and vars differently would break real references *)
let rn n = n ^ "_rn" (* buffers and pattern-local arrays *)
let rv v = v ^ "_rn" (* let-bound variables and loop vars *)
let shift = 100

let rec ren_exp (e : Exp.t) : Exp.t =
  match e with
  | Exp.Int _ | Exp.Float _ | Exp.Bool _ | Exp.Param _ -> e
  | Exp.Idx pid -> Exp.Idx (pid + shift)
  | Exp.Var x -> Exp.Var (rv x)
  | Exp.Read (n, l) -> Exp.Read (rn n, List.map ren_exp l)
  | Exp.Len n -> Exp.Len (rn n)
  | Exp.Bin (o, a, b) -> Exp.Bin (o, ren_exp a, ren_exp b)
  | Exp.Un (o, a) -> Exp.Un (o, ren_exp a)
  | Exp.Cmp (o, a, b) -> Exp.Cmp (o, ren_exp a, ren_exp b)
  | Exp.Select (c, a, b) -> Exp.Select (ren_exp c, ren_exp a, ren_exp b)

let ren_kind (k : Pat.kind) =
  match k with
  | Pat.Map { yield } -> Pat.Map { yield = ren_exp yield }
  | Pat.Reduce { yield; r } ->
    (* ren_exp renames the operand Vars inside combine like any other
       variable; renaming the operand names the same way keeps them in
       sync *)
    Pat.Reduce
      {
        yield = ren_exp yield;
        r =
          {
            Pat.init = ren_exp r.Pat.init;
            a = rv r.Pat.a;
            b = rv r.Pat.b;
            combine = ren_exp r.Pat.combine;
          };
      }
  | Pat.Arg_min { yield } -> Pat.Arg_min { yield = ren_exp yield }
  | Pat.Foreach -> Pat.Foreach
  | Pat.Filter { pred; yield } ->
    Pat.Filter { pred = ren_exp pred; yield = ren_exp yield }
  | Pat.Group_by { key; value; num_keys } ->
    Pat.Group_by { key = ren_exp key; value = ren_exp value; num_keys }

let ren_psize (s : Pat.psize) =
  match s with
  | Pat.Sconst _ | Pat.Sparam _ -> s
  | Pat.Sexp e -> Pat.Sexp (ren_exp e)
  | Pat.Sdyn e -> Pat.Sdyn (ren_exp e)

let rec ren_stmt (s : Pat.stmt) =
  match s with
  | Pat.Let (x, e) -> Pat.Let (rv x, ren_exp e)
  | Pat.Assign (x, e) -> Pat.Assign (rv x, ren_exp e)
  | Pat.Store (n, idxs, e) ->
    Pat.Store (rn n, List.map ren_exp idxs, ren_exp e)
  | Pat.Atomic_add (n, idxs, e) ->
    Pat.Atomic_add (rn n, List.map ren_exp idxs, ren_exp e)
  | Pat.Nested n -> Pat.Nested (ren_nested n)
  | Pat.If (c, t, e) ->
    Pat.If (ren_exp c, List.map ren_stmt t, List.map ren_stmt e)
  | Pat.For (v, lo, hi, body) ->
    Pat.For (rv v, ren_exp lo, ren_exp hi, List.map ren_stmt body)
  | Pat.While (c, body) -> Pat.While (ren_exp c, List.map ren_stmt body)

and ren_nested (n : Pat.nested) =
  { Pat.bind = Option.map rn n.Pat.bind; pat = ren_pattern n.Pat.pat }

and ren_pattern (p : Pat.pattern) =
  {
    Pat.pid = p.Pat.pid + shift;
    label = p.Pat.label ^ "X";
    size = ren_psize p.Pat.size;
    kind = ren_kind p.Pat.kind;
    body = List.map ren_stmt p.Pat.body;
  }

let ren_buffer (b : Pat.buffer) = { b with Pat.bname = rn b.Pat.bname }

let rec ren_step (s : Pat.step) =
  match s with
  | Pat.Launch n -> Pat.Launch (ren_nested n)
  | Pat.Host_loop { var; count; body } ->
    (* the loop var is visible as Exp.Param inside; leave it unrenamed
       like other params *)
    Pat.Host_loop { var; count; body = List.map ren_step body }
  | Pat.Swap (a, b) -> Pat.Swap (rn a, rn b)
  | Pat.While_flag { flag; max_iter; body } ->
    Pat.While_flag { flag = rn flag; max_iter; body = List.map ren_step body }

let ren_prog (p : Pat.prog) =
  {
    p with
    Pat.pname = p.Pat.pname ^ "X";
    buffers = List.map ren_buffer p.Pat.buffers;
    steps = List.map ren_step p.Pat.steps;
  }

(* body exps are renamed with ren_exp, which renames Var references to
   reducer operands a second time inside ren_kind's combine handling —
   keep the renamer honest by running renamed programs through validate *)

let apps () =
  [
    ("sum_rows", A.Sum_rows_cols.sum_rows ~r:64 ~c:48 ());
    ("sum_cols", A.Sum_rows_cols.sum_cols ~r:48 ~c:32 ());
    ("gemm", A.Gemm.app ~m:24 ~n:16 ~k:12 ());
    ("gaussian", A.Gaussian.app ~n:24 A.Gaussian.R);
    ("bfs", A.Bfs.app ~nodes:256 ~avg_degree:4 ());
    ("hotspot", A.Hotspot.app ~n:24 ~steps:2 A.Hotspot.R);
    ("nearest_neighbor", A.Nearest_neighbor.app ~n:512 ());
    ("qpscd", A.Qpscd.app ~samples:48 ~dim:64 ());
  ]

let test_alpha_equivalence () =
  List.iter
    (fun (name, (app : A.App.t)) ->
      let prog = app.A.App.prog in
      let prog' = ren_prog prog in
      (match Pat.validate prog' with
       | Ok () -> ()
       | Error e -> Alcotest.failf "%s: renamed program invalid: %s" name e);
      let params = Ppat_harness.Runner.analysis_params prog app.A.App.params in
      let r1 = Canon.prog_repr ~params:app.A.App.params prog
      and r2 = Canon.prog_repr ~params:app.A.App.params prog' in
      if r1 <> r2 then
        Alcotest.failf "%s: prog_repr changed under renaming:\n%s\n-- vs --\n%s"
          name r1 r2;
      List.iter2
        (fun (n : Pat.nested) (n' : Pat.nested) ->
          Alcotest.(check string)
            (name ^ "/" ^ n.Pat.pat.Pat.label ^ ": nest_key invariant")
            (Canon.nest_key ~params ?bind:n.Pat.bind dev prog n.Pat.pat)
            (Canon.nest_key ~params ?bind:n'.Pat.bind dev prog' n'.Pat.pat))
        (Pat.launches prog) (Pat.launches prog'))
    (apps ())

let test_shapes_do_not_collide () =
  (* 200+ nests across apps and sizes: every (app, shape) pair must get
     its own digest *)
  let keys = Hashtbl.create 512 in
  let dup = ref [] in
  let add name prog params (n : Pat.nested) =
    let k = Canon.nest_key ~params ?bind:n.Pat.bind dev prog n.Pat.pat in
    (match Hashtbl.find_opt keys k with
     | Some other when other <> name ^ "/" ^ n.Pat.pat.Pat.label ->
       dup := (name, other) :: !dup
     | _ -> ());
    Hashtbl.replace keys k (name ^ "/" ^ n.Pat.pat.Pat.label)
  in
  let feed name (app : A.App.t) =
    let params = Ppat_harness.Runner.analysis_params app.A.App.prog app.A.App.params in
    List.iter (add name app.A.App.prog params) (Pat.launches app.A.App.prog)
  in
  let rng = Random.State.make [| 42 |] in
  let seen = Hashtbl.create 256 in
  let n = ref 0 in
  while !n < 200 do
    let r = 8 + Random.State.int rng 120
    and c = 8 + Random.State.int rng 120 in
    if not (Hashtbl.mem seen (r, c)) then begin
      Hashtbl.add seen (r, c) ();
      incr n;
      feed
        (Printf.sprintf "sum_rows_%dx%d" r c)
        (A.Sum_rows_cols.sum_rows ~r ~c ());
      feed
        (Printf.sprintf "gemm_%dx%d" r c)
        (A.Gemm.app ~m:r ~n:c ~k:(8 + ((r + c) mod 24)) ())
    end
  done;
  List.iter (fun (name, app) -> feed name app) (apps ());
  (match !dup with
   | [] -> ()
   | (a, b) :: _ ->
     Alcotest.failf "digest collision between %s and %s" a b);
  Alcotest.(check bool) "collected a few hundred digests" true
    (Hashtbl.length keys > 200)

let test_value_and_class_sensitivity () =
  let mk size =
    let open Exp.Infix in
    let p =
      Pat.pattern ~pid:1 ~size ~kind:(Pat.Map { yield = read "a" [ idx 1 ] })
        []
    in
    let prog =
      {
        Pat.pname = "t";
        defaults = [ ("n", 64) ];
        buffers =
          [
            Pat.buffer "a" Ty.F64 [ Ty.Param "n" ] Pat.Input;
            Pat.buffer "o" Ty.F64 [ Ty.Param "n" ] Pat.Output;
          ];
        steps = [ Pat.Launch (Pat.nested ~bind:"o" p) ];
      }
    in
    (prog, p)
  in
  let key size params =
    let prog, p = mk size in
    Canon.nest_key ~params ~bind:"o" dev prog p
  in
  (* same value, different size class: a constant 64 is known earlier
     than a parameter that happens to be 64 *)
  Alcotest.(check bool) "Sconst vs Sparam differ" true
    (key (Pat.Sconst 64) [] <> key (Pat.Sparam "n") []);
  (* different parameter values differ *)
  Alcotest.(check bool) "param 64 vs 96 differ" true
    (key (Pat.Sparam "n") [] <> key (Pat.Sparam "n") [ ("n", 96) ]);
  (* layout flip differs *)
  let prog, p = mk (Pat.Sparam "n") in
  let k1 = Canon.nest_key ~bind:"o" dev prog p in
  (List.hd prog.Pat.buffers).Pat.blayout <- Pat.Col_major;
  let k2 = Canon.nest_key ~bind:"o" dev prog p in
  Alcotest.(check bool) "layout flip differs" true (k1 <> k2)

let tests =
  [
    Alcotest.test_case "alpha-renaming leaves digests unchanged" `Quick
      test_alpha_equivalence;
    Alcotest.test_case "distinct shapes get distinct digests" `Quick
      test_shapes_do_not_collide;
    Alcotest.test_case "values, size classes and layouts are significant"
      `Quick test_value_and_class_sensitivity;
  ]
