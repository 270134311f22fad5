open Ppat_ir
module Kir = Ppat_kernel.Kir

let ctype = function
  | Ty.F64 -> "double"
  | Ty.I32 -> "int"
  | Ty.Bool -> "bool"

(* buffers referenced by a kernel, in first-use order *)
let buffers_of (k : Kir.kernel) =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      out := name :: !out
    end
  in
  let rec exp = function
    | Kir.Load_g (b, i) ->
      add b;
      exp i
    | Kir.Load_s (_, i) -> exp i
    | Kir.Bin (_, a, b) | Kir.Cmp (_, a, b) ->
      exp a;
      exp b
    | Kir.Un (_, a) -> exp a
    | Kir.Select (c, a, b) ->
      exp c;
      exp a;
      exp b
    | Kir.Shfl_down (v, l) | Kir.Shfl_idx (v, l) ->
      exp v;
      exp l
    | Kir.Int _ | Kir.Float _ | Kir.Bool _ | Kir.Reg _ | Kir.Tid _
    | Kir.Bid _ | Kir.Bdim _ | Kir.Gdim _ | Kir.Param _ ->
      ()
  in
  let rec stmt = function
    | Kir.Set (_, e) -> exp e
    | Kir.Store_g (b, i, v) ->
      add b;
      exp i;
      exp v
    | Kir.Store_s (_, i, v) ->
      exp i;
      exp v
    | Kir.Atomic_add_g (b, i, v) ->
      add b;
      exp i;
      exp v
    | Kir.Atomic_add_ret { buf; idx; value; _ } ->
      add buf;
      exp idx;
      exp value
    | Kir.If (c, t, e) ->
      exp c;
      List.iter stmt t;
      List.iter stmt e
    | Kir.For { lo; hi; step; body; _ } ->
      exp lo;
      exp hi;
      exp step;
      List.iter stmt body
    | Kir.While (c, body) ->
      exp c;
      List.iter stmt body
    | Kir.Sync | Kir.Malloc_event -> ()
  in
  List.iter stmt k.body;
  List.rev !out

let params_of (k : Kir.kernel) =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.replace seen p ();
      out := p :: !out
    end
  in
  let rec exp = function
    | Kir.Param p -> add p
    | Kir.Load_g (_, i) | Kir.Load_s (_, i) -> exp i
    | Kir.Bin (_, a, b) | Kir.Cmp (_, a, b) ->
      exp a;
      exp b
    | Kir.Un (_, a) -> exp a
    | Kir.Select (c, a, b) ->
      exp c;
      exp a;
      exp b
    | Kir.Shfl_down (v, l) | Kir.Shfl_idx (v, l) ->
      exp v;
      exp l
    | Kir.Int _ | Kir.Float _ | Kir.Bool _ | Kir.Reg _ | Kir.Tid _
    | Kir.Bid _ | Kir.Bdim _ | Kir.Gdim _ ->
      ()
  in
  let rec stmt = function
    | Kir.Set (_, e) -> exp e
    | Kir.Store_g (_, i, v) | Kir.Store_s (_, i, v)
    | Kir.Atomic_add_g (_, i, v) ->
      exp i;
      exp v
    | Kir.Atomic_add_ret { idx; value; _ } ->
      exp idx;
      exp value
    | Kir.If (c, t, e) ->
      exp c;
      List.iter stmt t;
      List.iter stmt e
    | Kir.For { lo; hi; step; body; _ } ->
      exp lo;
      exp hi;
      exp step;
      List.iter stmt body
    | Kir.While (c, body) ->
      exp c;
      List.iter stmt body
    | Kir.Sync | Kir.Malloc_event -> ()
  in
  List.iter stmt k.body;
  List.rev !out

let kernel ?prog (k : Kir.kernel) =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let buf_ty name =
    match prog with
    | None -> "double"
    | Some p -> (
      match
        List.find_opt
          (fun (b : Pat.buffer) -> String.equal b.bname name)
          p.Pat.buffers
      with
      | Some b -> ctype b.elem
      | None -> "double")
  in
  let bufs = buffers_of k in
  let pars = params_of k in
  let args =
    List.map (fun b -> Printf.sprintf "%s* %s" (buf_ty b) b) bufs
    @ List.map (fun p -> Printf.sprintf "int %s" p) pars
  in
  pf "__global__ void %s(%s) {\n" k.kname (String.concat ", " args);
  List.iter
    (fun (d : Kir.smem_decl) ->
      pf "  __shared__ %s %s[%d];\n" (ctype d.selem) d.sname d.selems)
    k.smem;
  (* register declarations *)
  Array.iteri
    (fun r name -> pf "  %s %s;\n" (ctype k.reg_types.(r)) name)
    k.reg_names;
  let name r =
    if r < Array.length k.reg_names then k.reg_names.(r)
    else Printf.sprintf "r%d" r
  in
  let rec exp = function
    | Kir.Int n -> string_of_int n
    | Kir.Float x ->
      if Float.is_integer x && Float.abs x < 1e15 then
        Printf.sprintf "%.1f" x
      else Printf.sprintf "%.17g" x
    | Kir.Bool b -> if b then "true" else "false"
    | Kir.Reg r -> name r
    | Kir.Tid d -> "threadIdx." ^ Kir.dim_name d
    | Kir.Bid d -> "blockIdx." ^ Kir.dim_name d
    | Kir.Bdim d -> "blockDim." ^ Kir.dim_name d
    | Kir.Gdim d -> "gridDim." ^ Kir.dim_name d
    | Kir.Param p -> p
    | Kir.Bin ((Exp.Min | Exp.Max) as op, a, b) ->
      Printf.sprintf "%s(%s, %s)"
        (match op with Exp.Min -> "min" | _ -> "max")
        (exp a) (exp b)
    | Kir.Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (exp a) (Exp.binop_name op) (exp b)
    | Kir.Un (Exp.Sqrt, a) -> Printf.sprintf "sqrt(%s)" (exp a)
    | Kir.Un (Exp.Exp_, a) -> Printf.sprintf "exp(%s)" (exp a)
    | Kir.Un (Exp.Log_, a) -> Printf.sprintf "log(%s)" (exp a)
    | Kir.Un (Exp.Abs, a) -> Printf.sprintf "fabs(%s)" (exp a)
    | Kir.Un (Exp.Neg, a) -> Printf.sprintf "(-%s)" (exp a)
    | Kir.Un (Exp.Not, a) -> Printf.sprintf "(!%s)" (exp a)
    | Kir.Un (Exp.I2f, a) -> Printf.sprintf "(double)(%s)" (exp a)
    | Kir.Un (Exp.F2i, a) -> Printf.sprintf "(int)(%s)" (exp a)
    | Kir.Cmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (exp a) (Exp.cmpop_name op) (exp b)
    | Kir.Select (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (exp c) (exp a) (exp b)
    | Kir.Load_g (b, i) -> Printf.sprintf "%s[%s]" b (exp i)
    | Kir.Load_s (s, i) -> Printf.sprintf "%s[%s]" s (exp i)
    (* sm_30+ warp primitives; the sync variants (full-warp member mask)
       match the convergence the simulator enforces *)
    | Kir.Shfl_down (v, l) ->
      Printf.sprintf "__shfl_down_sync(0xffffffff, %s, %s)" (exp v) (exp l)
    | Kir.Shfl_idx (v, l) ->
      Printf.sprintf "__shfl_sync(0xffffffff, %s, %s)" (exp v) (exp l)
  in
  let rec stmt ind (s : Kir.stmt) =
    let tab = String.make ind ' ' in
    match s with
    | Kir.Set (r, e) -> pf "%s%s = %s;\n" tab (name r) (exp e)
    | Kir.Store_g (b, i, v) -> pf "%s%s[%s] = %s;\n" tab b (exp i) (exp v)
    | Kir.Store_s (m, i, v) -> pf "%s%s[%s] = %s;\n" tab m (exp i) (exp v)
    | Kir.Atomic_add_g (b, i, v) ->
      pf "%satomicAdd(&%s[%s], %s);\n" tab b (exp i) (exp v)
    | Kir.Atomic_add_ret { reg; buf = b; idx; value } ->
      pf "%s%s = atomicAdd(&%s[%s], %s);\n" tab (name reg) b (exp idx)
        (exp value)
    | Kir.If (c, t, []) ->
      pf "%sif (%s) {\n" tab (exp c);
      List.iter (stmt (ind + 2)) t;
      pf "%s}\n" tab
    | Kir.If (c, t, e) ->
      pf "%sif (%s) {\n" tab (exp c);
      List.iter (stmt (ind + 2)) t;
      pf "%s} else {\n" tab;
      List.iter (stmt (ind + 2)) e;
      pf "%s}\n" tab
    | Kir.For { reg; lo; hi; step; body } ->
      pf "%sfor (%s = %s; %s < %s; %s += %s) {\n" tab (name reg) (exp lo)
        (name reg) (exp hi) (name reg) (exp step);
      List.iter (stmt (ind + 2)) body;
      pf "%s}\n" tab
    | Kir.While (c, body) ->
      pf "%swhile (%s) {\n" tab (exp c);
      List.iter (stmt (ind + 2)) body;
      pf "%s}\n" tab
    | Kir.Sync -> pf "%s__syncthreads();\n" tab
    | Kir.Malloc_event -> pf "%s/* malloc(...) */\n" tab
  in
  List.iter (stmt 2) k.body;
  pf "}\n";
  Buffer.contents buf

let launch_comment (l : Kir.launch) =
  let gx, gy, gz = l.grid and bx, by, bz = l.block in
  Printf.sprintf "// %s<<<dim3(%d,%d,%d), dim3(%d,%d,%d)>>>" l.kernel.kname
    gx gy gz bx by bz
