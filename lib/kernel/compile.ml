(* Closure-compiling execution engine for Kir.

   The reference interpreter (Interp) re-walks the AST per lane per
   statement, boxes every scalar in a variant and resolves every name by
   string lookup inside the innermost loop. Following the staged-evaluation
   idea of LMS — the machinery behind the paper's own Delite stack — this
   module removes that interpretive overhead by *staging the interpreter*:
   each kernel is translated once per launch into a tree of OCaml closures
   over unboxed lane state. At compile time we

   - infer one static type (int / float / bool) per virtual register and
     split the register file into an unboxed [int array] / [float array];
   - resolve every global buffer to its [Memory.entry] (base address,
     element size and the raw data array are captured in the closure);
   - resolve shared arrays to dense slot indices;
   - bake launch geometry and kernel parameters in as constants;
   - precompute the per-statement instruction counts, so the run-time
     engine bumps [warp_insts] once per warp statement instead of once per
     AST node;
   - stage every statement node-major: each expression node becomes one
     closure that evaluates all active lanes of the warp in a tight
     unboxed loop (see "node-major statement engine" below).

   Statistics are bit-identical with the reference engine: both issue the
   same counter updates in the same order, and both price memory accesses
   through the shared [Warp_access] scratch. Anything the static analysis
   cannot prove faithful — mixed-type arithmetic, possibly-undefined
   register reads, unbound names, warp-primitive operands that read
   memory — makes [compile] return [Error], and the driver runs that
   launch on the reference tree-walker, which reproduces the exact
   dynamic trap semantics. *)

open Ppat_gpu

let trap = Simt_error.trap

exception Fallback of string

let fallback fmt = Format.kasprintf (fun s -> raise (Fallback s)) fmt

let max_loop_iters = 1 lsl 24

(* ----- run-time state ----- *)

(* One context per warp. Registers are laid out register-major
   ([r * warp_size + lane]) so the per-lane loop of one statement walks
   consecutive cells. Shared-memory arrays belong to the block and are
   shared by its warps' contexts. *)
type ctx = {
  ireg : int array;  (* I32/Bool registers, bools as 0/1 *)
  freg : float array;
  tidx : int array;  (* per-lane thread indices, precomputed per warp *)
  tidy : int array;
  tidz : int array;
  mutable bidx : int;  (* mutable: warp contexts are reused across blocks *)
  mutable bidy : int;
  mutable bidz : int;
  exists_mask : int;  (* lanes backed by a real thread *)
  mutable cmask : int;
      (* active mask of the warp statement currently evaluating, written
         only at evaluation points whose expression statically contains a
         warp shuffle; those closures compare it against
         [exists_mask] to enforce convergence *)
  attr_on : bool;
      (* site attribution enabled for this run. Checked inline in the
         divergence hot path so unattributed runs pay one load+branch,
         not a cross-module call, per divergent branch. *)
  acc : Warp_access.t;
  stats : Stats.t;
  sf : float array array;  (* shared float arrays of the block, by slot *)
  si : int array array;
  (* node-major scratch, one row of [warp_size] lanes per slot. The slabs
     are shared by every warp context of one worker state: a vector
     statement always runs to completion before another warp resumes
     (Sync is a statement of its own), so rows are dead between
     statements. The const slabs are filled at state creation and
     read-only afterwards. *)
  vi_slab : int array;
  vf_slab : float array;
  vi_const : int array;
  vf_const : float array;
}

type cstmt = ctx -> int -> unit

(* Operand of a node-major vector node: one row of [warp_size] lanes.
   [VIs]/[VFs] index the per-statement temp slab, [VIr]/[VFr] a register
   row, [VIc]/[VFc] a prefilled constant row; thread indices read their
   precomputed per-warp arrays directly. Booleans are canonical 0/1 rows
   in int space. Offsets are in array cells (slot * warp_size). *)
type visrc = VIs of int | VIr of int | VIc of int | VTx | VTy | VTz
type vfsrc = VFs of int | VFr of int | VFc of int
type vtexp = VI of visrc | VF of vfsrc | VB of visrc

type vnode = ctx -> int -> unit

(* per-launch vector-compilation state: constant rows are deduplicated
   across the whole kernel, temp-slab sizing is the max over statements *)
type vglobal = {
  itbl : (int, int) Hashtbl.t;  (* const value -> const-slab offset *)
  ftbl : (int64, int) Hashtbl.t;  (* float consts keyed by bits *)
  mutable rev_ivals : int list;
  mutable rev_fvals : float list;
  mutable nic : int;
  mutable nfc : int;
  mutable max_ni : int;
  mutable max_nf : int;
}

(* per-statement vector-compilation state *)
type vstate = {
  vg : vglobal;
  vws : int;
  mutable rev_nodes : vnode list;  (* emission order, reversed *)
  mutable ni : int;  (* temp slots allocated so far *)
  mutable nf : int;
  mutable rev_kinds : Warp_access.kind list;  (* memory slots, reversed *)
  mutable nmem : int;
  watch : (Warp_access.kind * string) option;
      (* the array the statement writes, when its operands also load it *)
  mutable watched_rows : visrc list;  (* index rows of those loads *)
}

type ty = TI | TF | TB

type sref = Sf of int * int | Si of int * int  (* slot, length *)

type env = {
  dev : Device.t;
  mem : Memory.t;
  k : Kir.kernel;
  ws : int;
  bx : int;
  by : int;
  bz : int;
  gx : int;
  gy : int;
  gz : int;
  kparams : (string * int) list;
  rt : ty array;
  smem_env : (string * sref) list;
  vg : vglobal;
}

type t = {
  c_launch : Kir.launch;
  c_mem : Memory.t;
  c_body : cstmt array;
  c_nregs : int;
  c_ws : int;
  c_tpb : int;
  c_sf_sizes : int array;
  c_si_sizes : int array;
  (* vector-engine slab sizing and constant rows (values per slot) *)
  c_ni : int;
  c_nf : int;
  c_iconsts : int array;
  c_fconsts : float array;
}

(* ----- static expression measures ----- *)

(* instructions the reference engine counts while evaluating [e] once:
   one per Bin/Un/Cmp/Select/Load node (operands of constant subtrees
   included — counting is structural, not operational) *)
let rec nodes (e : Kir.exp) =
  match e with
  | Int _ | Float _ | Bool _ | Reg _ | Tid _ | Bid _ | Bdim _ | Gdim _
  | Param _ ->
    0
  | Bin (_, a, b) | Cmp (_, a, b) -> 1 + nodes a + nodes b
  | Un (_, a) -> 1 + nodes a
  | Select (c, a, b) -> 1 + nodes c + nodes a + nodes b
  | Load_g (_, i) | Load_s (_, i) -> 1 + nodes i
  | Shfl_down (v, l) | Shfl_idx (v, l) -> 1 + nodes v + nodes l

let rec has_mem (e : Kir.exp) =
  match e with
  | Int _ | Float _ | Bool _ | Reg _ | Tid _ | Bid _ | Bdim _ | Gdim _
  | Param _ ->
    false
  | Bin (_, a, b) | Cmp (_, a, b) -> has_mem a || has_mem b
  | Un (_, a) -> has_mem a
  | Select (c, a, b) -> has_mem c || has_mem a || has_mem b
  | Load_g _ | Load_s _ -> true
  | Shfl_down (v, l) | Shfl_idx (v, l) ->
    (* validated kernels have pure operands; recurse for the malformed *)
    has_mem v || has_mem l

(* shuffle instructions the reference engine counts while evaluating [e]
   once (one per shuffle node) *)
let rec shfl_nodes (e : Kir.exp) =
  match e with
  | Int _ | Float _ | Bool _ | Reg _ | Tid _ | Bid _ | Bdim _ | Gdim _
  | Param _ ->
    0
  | Bin (_, a, b) | Cmp (_, a, b) -> shfl_nodes a + shfl_nodes b
  | Un (_, a) -> shfl_nodes a
  | Select (c, a, b) -> shfl_nodes c + shfl_nodes a + shfl_nodes b
  | Load_g (_, i) | Load_s (_, i) -> shfl_nodes i
  | Shfl_down (v, l) | Shfl_idx (v, l) -> 1 + shfl_nodes v + shfl_nodes l

(* ----- register typing -----

   Fixpoint over all assignments: a register's type is the type of every
   expression assigned to it; conflicts (or arithmetic the reference
   engine would trap on) abort compilation. Optimistic propagation is safe
   because vcompile_exp re-checks every operand strictly afterwards. *)

let buf_ty (e : Memory.entry) =
  match e.Memory.data with Ppat_ir.Host.F _ -> TF | Ppat_ir.Host.I _ -> TI

let smem_ty (d : Kir.smem_decl) =
  match d.selem with Ppat_ir.Ty.F64 -> TF | Ppat_ir.Ty.I32 | Ppat_ir.Ty.Bool -> TI

let find_entry env name =
  if Memory.mem env.mem name then Memory.find env.mem name
  else fallback "unbound buffer %S" name

let smem_ref env name =
  match List.assoc_opt name env.smem_env with
  | Some r -> r
  | None -> fallback "undeclared shared array %S" name

let infer_types env =
  let rt : ty option array = Array.make env.k.Kir.nregs None in
  let changed = ref true in
  let entry_ty name =
    if Memory.mem env.mem name then Some (buf_ty (Memory.find env.mem name))
    else fallback "unbound buffer %S" name
  in
  let sdecl_ty name =
    match List.assoc_opt name env.smem_env with
    | Some (Sf _) -> Some TF
    | Some (Si _) -> Some TI
    | None -> fallback "undeclared shared array %S" name
  in
  let rec ety (e : Kir.exp) : ty option =
    match e with
    | Int _ -> Some TI
    | Float _ -> Some TF
    | Bool _ -> Some TB
    | Reg r -> rt.(r)
    | Tid _ | Bid _ | Bdim _ | Gdim _ | Param _ -> Some TI
    | Bin ((Add | Sub | Mul | Div | Min | Max), a, b) -> (
      match (ety a, ety b) with
      | Some TB, _ | _, Some TB -> fallback "boolean arithmetic"
      | Some ta, Some tb when ta <> tb -> fallback "mixed-type arithmetic"
      | Some ta, _ -> Some ta
      | None, tb -> tb)
    | Bin (Mod, a, b) -> (
      match (ety a, ety b) with
      | (Some TF | Some TB), _ | _, (Some TF | Some TB) ->
        fallback "mod on non-integers"
      | _ -> Some TI)
    | Bin ((And | Or), a, b) -> (
      match (ety a, ety b) with
      | (Some TI | Some TF), _ | _, (Some TI | Some TF) ->
        fallback "logical op on non-booleans"
      | _ -> Some TB)
    | Cmp (_, a, b) -> (
      match (ety a, ety b) with
      | Some ta, Some tb when ta <> tb -> fallback "mixed-type comparison"
      | _ -> Some TB)
    | Un (Neg, a) -> (
      match ety a with
      | Some TB -> fallback "negation of a boolean"
      | t -> t)
    | Un (Not, a) -> (
      match ety a with
      | Some (TI | TF) -> fallback "not of a non-boolean"
      | _ -> Some TB)
    | Un ((Sqrt | Exp_ | Log_), a) -> (
      match ety a with
      | Some (TI | TB) -> fallback "float unop on non-float"
      | _ -> Some TF)
    | Un (Abs, a) -> (
      match ety a with
      | Some TB -> fallback "abs of a boolean"
      | t -> t)
    | Un (I2f, a) -> (
      match ety a with
      | Some (TF | TB) -> fallback "i2f of a non-integer"
      | _ -> Some TF)
    | Un (F2i, a) -> (
      match ety a with
      | Some (TI | TB) -> fallback "f2i of a non-float"
      | _ -> Some TI)
    | Select (_, a, b) -> (
      match (ety a, ety b) with
      | Some ta, Some tb when ta <> tb -> fallback "mixed-type select"
      | Some ta, _ -> Some ta
      | None, tb -> tb)
    | Load_g (name, _) -> entry_ty name
    | Load_s (name, _) -> sdecl_ty name
    | Shfl_down (v, _) | Shfl_idx (v, _) ->
      (* the shuffled value keeps its type; the lane selector is checked
         strictly by vcompile_exp *)
      ety v
  in
  let assign r t =
    match rt.(r) with
    | None ->
      rt.(r) <- Some t;
      changed := true
    | Some t' -> if t <> t' then fallback "register assigned two types"
  in
  let rec stmt (s : Kir.stmt) =
    match s with
    | Kir.Set (r, e) -> (
      match ety e with Some t -> assign r t | None -> ())
    | Kir.Atomic_add_ret { reg; buf; _ } -> (
      match entry_ty buf with Some t -> assign reg t | None -> ())
    | Kir.For { reg; lo; body; _ } ->
      (match ety lo with Some t -> assign reg t | None -> ());
      List.iter stmt body
    | Kir.If (_, th, el) ->
      List.iter stmt th;
      List.iter stmt el
    | Kir.While (_, body) -> List.iter stmt body
    | Kir.Store_g _ | Kir.Store_s _ | Kir.Atomic_add_g _ | Kir.Sync
    | Kir.Malloc_event ->
      ()
  in
  while !changed do
    changed := false;
    List.iter stmt env.k.Kir.body
  done;
  (* any register read somewhere but still untyped cannot be compiled *)
  let reads_untyped = ref false in
  let rec exp_reads (e : Kir.exp) =
    match e with
    | Kir.Reg r -> if rt.(r) = None then reads_untyped := true
    | Int _ | Float _ | Bool _ | Tid _ | Bid _ | Bdim _ | Gdim _ | Param _ ->
      ()
    | Bin (_, a, b) | Cmp (_, a, b) ->
      exp_reads a;
      exp_reads b
    | Un (_, a) -> exp_reads a
    | Select (c, a, b) ->
      exp_reads c;
      exp_reads a;
      exp_reads b
    | Load_g (_, i) | Load_s (_, i) -> exp_reads i
    | Shfl_down (v, l) | Shfl_idx (v, l) ->
      exp_reads v;
      exp_reads l
  in
  let rec stmt_reads (s : Kir.stmt) =
    match s with
    | Kir.Set (_, e) -> exp_reads e
    | Kir.Store_g (_, i, v) | Kir.Store_s (_, i, v)
    | Kir.Atomic_add_g (_, i, v) ->
      exp_reads i;
      exp_reads v
    | Kir.Atomic_add_ret { idx; value; _ } ->
      exp_reads idx;
      exp_reads value
    | Kir.If (c, t, e) ->
      exp_reads c;
      List.iter stmt_reads t;
      List.iter stmt_reads e
    | Kir.For { lo; hi; step; body; reg } ->
      exp_reads lo;
      exp_reads hi;
      exp_reads step;
      exp_reads (Kir.Reg reg);
      List.iter stmt_reads body
    | Kir.While (c, body) ->
      exp_reads c;
      List.iter stmt_reads body
    | Kir.Sync | Kir.Malloc_event -> ()
  in
  List.iter stmt_reads env.k.Kir.body;
  if !reads_untyped then fallback "register with no inferable type";
  Array.map (function Some t -> t | None -> TI) rt

(* ----- definite assignment -----

   The reference engine traps dynamically on reads of undefined registers.
   The compiled engine has no [VU]; instead we prove statically that no
   read can precede every assignment on some path, and fall back to the
   reference engine otherwise (which then reproduces the exact trap). *)

module IS = Set.Make (Int)

let check_definite_assignment (k : Kir.kernel) =
  let rec reads d (e : Kir.exp) =
    match e with
    | Kir.Reg r ->
      if not (IS.mem r d) then fallback "possibly-undefined register read"
    | Int _ | Float _ | Bool _ | Tid _ | Bid _ | Bdim _ | Gdim _ | Param _ ->
      ()
    | Bin (_, a, b) | Cmp (_, a, b) ->
      reads d a;
      reads d b
    | Un (_, a) -> reads d a
    | Select (c, a, b) ->
      reads d c;
      reads d a;
      reads d b
    | Load_g (_, i) | Load_s (_, i) -> reads d i
    | Shfl_down (v, l) | Shfl_idx (v, l) ->
      (* a shuffle reads its value operand at *another* lane; registers in
         it must therefore be assigned on every path (convergence — which
         both engines enforce dynamically — then guarantees every lane has
         executed those assignments) *)
      reads d v;
      reads d l
  in
  let rec stmt d (s : Kir.stmt) =
    match s with
    | Kir.Set (r, e) ->
      reads d e;
      IS.add r d
    | Kir.Store_g (_, i, v) | Kir.Store_s (_, i, v)
    | Kir.Atomic_add_g (_, i, v) ->
      reads d i;
      reads d v;
      d
    | Kir.Atomic_add_ret { reg; idx; value; _ } ->
      reads d idx;
      reads d value;
      IS.add reg d
    | Kir.If (c, t, e) ->
      reads d c;
      let dt = stmts d t and de = stmts d e in
      IS.inter dt de
    | Kir.For { reg; lo; hi; step; body } ->
      reads d lo;
      let d = IS.add reg d in
      reads d hi;
      let db = stmts d body in
      reads db step;
      (* the body may run zero times: only the counter survives *)
      d
    | Kir.While (c, body) ->
      reads d c;
      ignore (stmts d body);
      d
    | Kir.Sync | Kir.Malloc_event -> d
  and stmts d l = List.fold_left stmt d l in
  ignore (stmts IS.empty k.Kir.body)

(* ----- compile-time constant folding -----

   Anything built from literals, launch geometry and kernel parameters
   folds to a constant closure (loop bounds in generated code are almost
   always [Param] arithmetic). Folding never crosses a potential trap:
   division by a zero constant, or any type mismatch, simply declines. *)

type cval = CI of int | CF of float | CB of bool

let rec cfold env (e : Kir.exp) : cval option =
  match e with
  | Kir.Int n -> Some (CI n)
  | Kir.Float x -> Some (CF x)
  | Kir.Bool b -> Some (CB b)
  | Kir.Bdim d ->
    Some (CI (match d with Kir.X -> env.bx | Kir.Y -> env.by | Kir.Z -> env.bz))
  | Kir.Gdim d ->
    Some (CI (match d with Kir.X -> env.gx | Kir.Y -> env.gy | Kir.Z -> env.gz))
  | Kir.Param p -> (
    match List.assoc_opt p env.kparams with
    | Some v -> Some (CI v)
    | None -> fallback "unbound parameter %S" p)
  | Kir.Reg _ | Kir.Tid _ | Kir.Bid _ | Kir.Load_g _ | Kir.Load_s _ -> None
  (* shuffles are lane-dependent by construction: never folded *)
  | Kir.Shfl_down _ | Kir.Shfl_idx _ -> None
  | Kir.Bin (op, a, b) -> (
    match (cfold env a, cfold env b) with
    | Some (CI x), Some (CI y) -> (
      let open Ppat_ir.Exp in
      match op with
      | Add -> Some (CI (x + y))
      | Sub -> Some (CI (x - y))
      | Mul -> Some (CI (x * y))
      | Div -> if y = 0 then None else Some (CI (x / y))
      | Mod -> if y = 0 then None else Some (CI (x mod y))
      | Min -> Some (CI (min x y))
      | Max -> Some (CI (max x y))
      | And | Or -> None)
    | Some (CF x), Some (CF y) -> (
      let open Ppat_ir.Exp in
      match op with
      | Add -> Some (CF (x +. y))
      | Sub -> Some (CF (x -. y))
      | Mul -> Some (CF (x *. y))
      | Div -> Some (CF (x /. y))
      | Min -> Some (CF (Float.min x y))
      | Max -> Some (CF (Float.max x y))
      | Mod | And | Or -> None)
    | Some (CB x), Some (CB y) -> (
      let open Ppat_ir.Exp in
      match op with
      | And -> Some (CB (x && y))
      | Or -> Some (CB (x || y))
      | _ -> None)
    | _ -> None)
  | Kir.Un (op, a) -> (
    match (op, cfold env a) with
    | Ppat_ir.Exp.Neg, Some (CI x) -> Some (CI (-x))
    | Ppat_ir.Exp.Neg, Some (CF x) -> Some (CF (-.x))
    | Ppat_ir.Exp.Not, Some (CB x) -> Some (CB (not x))
    | Ppat_ir.Exp.Sqrt, Some (CF x) -> Some (CF (Float.sqrt x))
    | Ppat_ir.Exp.Exp_, Some (CF x) -> Some (CF (Float.exp x))
    | Ppat_ir.Exp.Log_, Some (CF x) -> Some (CF (Float.log x))
    | Ppat_ir.Exp.Abs, Some (CF x) -> Some (CF (Float.abs x))
    | Ppat_ir.Exp.Abs, Some (CI x) -> Some (CI (abs x))
    | Ppat_ir.Exp.I2f, Some (CI x) -> Some (CF (float_of_int x))
    | Ppat_ir.Exp.F2i, Some (CF x) -> Some (CI (int_of_float x))
    | _ -> None)
  | Kir.Cmp (op, a, b) -> (
    let cmp c =
      let open Ppat_ir.Exp in
      Some
        (CB
           (match op with
            | Eq -> c = 0
            | Ne -> c <> 0
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0))
    in
    match (cfold env a, cfold env b) with
    | Some (CI x), Some (CI y) -> cmp (compare x y)
    | Some (CF x), Some (CF y) -> cmp (Float.compare x y)
    | Some (CB x), Some (CB y) -> cmp (Bool.compare x y)
    | _ -> None)
  | Kir.Select (c, a, b) -> (
    match (cfold env c, cfold env a, cfold env b) with
    | Some (CB cv), Some av, Some bv -> Some (if cv then av else bv)
    | Some (CI cv), Some av, Some bv -> Some (if cv <> 0 then av else bv)
    | _ -> None)

(* ----- statement compilation ----- *)

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let bump stats n =
  if n > 0. then stats.Stats.warp_insts <- stats.Stats.warp_insts +. n

(* Arm one evaluation point whose expression contains [ns] warp shuffle
   nodes: publish the active mask for the convergence check and count the
   shuffles — the reference engine does both while evaluating the first
   active lane. Statically zero-shuffle points skip this entirely (the
   common case pays one float compare). *)
let shfl_pre ns ctx mask =
  if ns > 0. then begin
    ctx.cmask <- mask;
    ctx.stats.Stats.shuffles <- ctx.stats.Stats.shuffles +. ns
  end

let run_body (body : cstmt array) ctx mask =
  for i = 0 to Array.length body - 1 do
    (Array.unsafe_get body i) ctx mask
  done

(* ----- node-major statement engine -----

   A statement is staged node-major: each expression node becomes one
   closure that evaluates all active lanes in a tight unboxed loop over
   slab rows, so closure dispatch is paid once per warp-node instead of
   once per lane-node. Node emission order replays the reference
   engine's per-lane evaluation order (Bin/Cmp right operand first,
   Select strict cond/then/else, a load's index subtree before its
   record), and every memory operand takes one [Warp_access] slot in that
   order with lanes appended in lane order — the priced access stream is
   identical to the reference engine's, so all statistics stay
   bit-identical.

   Straight-line statements (Set, stores, atomics) are one fragment each;
   control flow runs its branch/loop skeleton once per warp and stages
   its predicate, init and step expressions as fragments. The reference
   engine runs a statement lane by lane, so a statement whose operands
   load the array it writes (an aliasing store, or an atomic whose
   operands read its target) can see earlier lanes' writes there; such a
   statement checks for a cross-lane read-after-write after the operand
   pass and replays lane by lane when it finds one ([checked] below).
   The only other observable difference is trap interleaving in
   multi-fault warps: the reference engine runs whole lanes in order,
   this engine whole nodes in order, so when two lanes would each trap
   the one that fires first can differ. *)

let iarr ctx = function
  | VIs _ -> ctx.vi_slab
  | VIr _ -> ctx.ireg
  | VIc _ -> ctx.vi_const
  | VTx -> ctx.tidx
  | VTy -> ctx.tidy
  | VTz -> ctx.tidz

let ioff = function VIs o | VIr o | VIc o -> o | VTx | VTy | VTz -> 0
let farr ctx = function VFs _ -> ctx.vf_slab | VFr _ -> ctx.freg | VFc _ -> ctx.vf_const
let foff = function VFs o | VFr o | VFc o -> o

(* Lane loops are local tail-recursive functions over the mask bits. Each
   [let rec go] still allocates its closure (8 words) once per node call,
   and [for] loops over the lanes would cut the engine's words per warp
   instruction several-fold; they were measured slower on most of the
   bench suite, so the recursion stays for speed, not for allocation.
   Every maker resolves its operand rows once per node call, then runs a
   branch-free (bar the mask test) unboxed loop. *)

let v_ibin op sa sb d : vnode =
 fun ctx m ->
  let a = iarr ctx sa and b = iarr ctx sb and dst = ctx.vi_slab in
  let ao = ioff sa and bo = ioff sb in
  let open Ppat_ir.Exp in
  match op with
  | Add ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) + Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Sub ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) - Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Mul ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) * Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Div ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let y = Array.unsafe_get b (bo + l) in
          if y = 0 then trap "division by zero";
          Array.unsafe_set dst (d + l) (Array.unsafe_get a (ao + l) / y)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Mod ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let y = Array.unsafe_get b (bo + l) in
          if y = 0 then trap "modulo by zero";
          Array.unsafe_set dst (d + l) (Array.unsafe_get a (ao + l) mod y)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Min ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) and y = Array.unsafe_get b (bo + l) in
          Array.unsafe_set dst (d + l) (if x <= y then x else y)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Max ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) and y = Array.unsafe_get b (bo + l) in
          Array.unsafe_set dst (d + l) (if x >= y then x else y)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | And ->
    (* canonical 0/1 rows *)
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) land Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Or ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) lor Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

let v_fbin op sa sb d : vnode =
 fun ctx m ->
  let a = farr ctx sa and b = farr ctx sb and dst = ctx.vf_slab in
  let ao = foff sa and bo = foff sb in
  let open Ppat_ir.Exp in
  match op with
  | Add ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) +. Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Sub ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) -. Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Mul ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) *. Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Div ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Array.unsafe_get a (ao + l) /. Array.unsafe_get b (bo + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Min ->
    (* Float.min, like the reference engine: NaN- and signed-zero-aware *)
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Float.min (Array.unsafe_get a (ao + l)) (Array.unsafe_get b (bo + l)));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Max ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (Float.max (Array.unsafe_get a (ao + l)) (Array.unsafe_get b (bo + l)));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Mod | And | Or -> assert false

let v_icmp op sa sb d : vnode =
 fun ctx m ->
  let a = iarr ctx sa and b = iarr ctx sb and dst = ctx.vi_slab in
  let ao = ioff sa and bo = ioff sb in
  let open Ppat_ir.Exp in
  match op with
  | Eq ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (if Array.unsafe_get a (ao + l) = Array.unsafe_get b (bo + l) then 1 else 0);
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Ne ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (if Array.unsafe_get a (ao + l) <> Array.unsafe_get b (bo + l) then 1 else 0);
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Lt ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (if Array.unsafe_get a (ao + l) < Array.unsafe_get b (bo + l) then 1 else 0);
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Le ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (if Array.unsafe_get a (ao + l) <= Array.unsafe_get b (bo + l) then 1 else 0);
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Gt ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (if Array.unsafe_get a (ao + l) > Array.unsafe_get b (bo + l) then 1 else 0);
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Ge ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l)
            (if Array.unsafe_get a (ao + l) >= Array.unsafe_get b (bo + l) then 1 else 0);
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

(* Float comparisons follow the reference engine's [Float.compare] total
   order (NaN below everything, NaN = NaN) — spelled out with IEEE
   operators plus NaN tests so the loop stays free of C calls. *)
let v_fcmp op sa sb d : vnode =
 fun ctx m ->
  let a = farr ctx sa and b = farr ctx sb and dst = ctx.vi_slab in
  let ao = foff sa and bo = foff sb in
  let open Ppat_ir.Exp in
  match op with
  | Eq ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) and y = Array.unsafe_get b (bo + l) in
          Array.unsafe_set dst (d + l)
            (if x = y || (x <> x && y <> y) then 1 else 0)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Ne ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) and y = Array.unsafe_get b (bo + l) in
          Array.unsafe_set dst (d + l)
            (if x = y || (x <> x && y <> y) then 0 else 1)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Lt ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) and y = Array.unsafe_get b (bo + l) in
          Array.unsafe_set dst (d + l)
            (if x < y || (x <> x && y = y) then 1 else 0)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Le ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) and y = Array.unsafe_get b (bo + l) in
          Array.unsafe_set dst (d + l) (if x <= y || x <> x then 1 else 0)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Gt ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) and y = Array.unsafe_get b (bo + l) in
          Array.unsafe_set dst (d + l)
            (if x > y || (y <> y && x = x) then 1 else 0)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Ge ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) and y = Array.unsafe_get b (bo + l) in
          Array.unsafe_set dst (d + l) (if x >= y || y <> y then 1 else 0)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

let v_iun op sa d : vnode =
 fun ctx m ->
  let a = iarr ctx sa and dst = ctx.vi_slab in
  let ao = ioff sa in
  let open Ppat_ir.Exp in
  match op with
  | Neg ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l) (-Array.unsafe_get a (ao + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Abs ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let x = Array.unsafe_get a (ao + l) in
          Array.unsafe_set dst (d + l) (if x >= 0 then x else -x)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Not ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l) (1 - Array.unsafe_get a (ao + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Sqrt | Exp_ | Log_ | I2f | F2i -> assert false

let v_fun_ op sa d : vnode =
 fun ctx m ->
  let a = farr ctx sa and dst = ctx.vf_slab in
  let ao = foff sa in
  let open Ppat_ir.Exp in
  match op with
  | Neg ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l) (-.Array.unsafe_get a (ao + l));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Abs ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l) (Float.abs (Array.unsafe_get a (ao + l)));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Sqrt ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l) (Float.sqrt (Array.unsafe_get a (ao + l)));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Exp_ ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l) (Float.exp (Array.unsafe_get a (ao + l)));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Log_ ->
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then
          Array.unsafe_set dst (d + l) (Float.log (Array.unsafe_get a (ao + l)));
        go (m lsr 1) (l + 1)
      end
    in
    go m 0
  | Not | I2f | F2i -> assert false

let v_i2f sa d : vnode =
 fun ctx m ->
  let a = iarr ctx sa and dst = ctx.vf_slab in
  let ao = ioff sa in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then
        Array.unsafe_set dst (d + l)
          (float_of_int (Array.unsafe_get a (ao + l)));
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

let v_f2i sa d : vnode =
 fun ctx m ->
  let a = farr ctx sa and dst = ctx.vi_slab in
  let ao = foff sa in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then
        Array.unsafe_set dst (d + l)
          (int_of_float (Array.unsafe_get a (ao + l)));
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

(* the blend tests <> 0, the reference engine's int-to-bool coercion *)
let v_isel sc sa sb d : vnode =
 fun ctx m ->
  let c = iarr ctx sc and a = iarr ctx sa and b = iarr ctx sb in
  let dst = ctx.vi_slab in
  let co = ioff sc and ao = ioff sa and bo = ioff sb in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then
        Array.unsafe_set dst (d + l)
          (if Array.unsafe_get c (co + l) <> 0 then Array.unsafe_get a (ao + l)
           else Array.unsafe_get b (bo + l));
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

let v_fsel sc sa sb d : vnode =
 fun ctx m ->
  let c = iarr ctx sc and a = farr ctx sa and b = farr ctx sb in
  let dst = ctx.vf_slab in
  let co = ioff sc and ao = foff sa and bo = foff sb in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then
        Array.unsafe_set dst (d + l)
          (if Array.unsafe_get c (co + l) <> 0 then Array.unsafe_get a (ao + l)
           else Array.unsafe_get b (bo + l));
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

(* block id: uniform across the warp, broadcast into a full temp row
   (inactive lanes harmlessly get the same value) *)
let v_bid dim ws o : vnode =
 fun ctx _ ->
  Array.fill ctx.vi_slab o ws
    (match dim with Kir.X -> ctx.bidx | Kir.Y -> ctx.bidy | Kir.Z -> ctx.bidz)

let v_copy_i dbase src : vnode =
 fun ctx m ->
  let a = iarr ctx src and dst = ctx.ireg in
  let ao = ioff src in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then
        Array.unsafe_set dst (dbase + l) (Array.unsafe_get a (ao + l));
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

let v_copy_f dbase src : vnode =
 fun ctx m ->
  let a = farr ctx src and dst = ctx.freg in
  let ao = foff src in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then
        Array.unsafe_set dst (dbase + l) (Array.unsafe_get a (ao + l));
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

(* loads/stores: per active lane, record then bounds-check then touch the
   data — the same order as the reference engine, slot by slot *)

let v_load_gf name (a : float array) base eb ms sidx d : vnode =
  let len = Array.length a in
  fun ctx m ->
    let ia = iarr ctx sidx and dst = ctx.vf_slab and acc = ctx.acc in
    let io = ioff sidx in
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let ix = Array.unsafe_get ia (io + l) in
          Warp_access.record_at acc ms (base + (ix * eb));
          if ix < 0 || ix >= len then
            trap "load out of bounds: %s[%d] (len %d)" name ix len;
          Array.unsafe_set dst (d + l) (Array.unsafe_get a ix)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

let v_load_gi name (a : int array) base eb ms sidx d : vnode =
  let len = Array.length a in
  fun ctx m ->
    let ia = iarr ctx sidx and dst = ctx.vi_slab and acc = ctx.acc in
    let io = ioff sidx in
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let ix = Array.unsafe_get ia (io + l) in
          Warp_access.record_at acc ms (base + (ix * eb));
          if ix < 0 || ix >= len then
            trap "load out of bounds: %s[%d] (len %d)" name ix len;
          Array.unsafe_set dst (d + l) (Array.unsafe_get a ix)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

let v_load_sf name slot len ms sidx d : vnode =
 fun ctx m ->
  let arr = Array.unsafe_get ctx.sf slot in
  let ia = iarr ctx sidx and dst = ctx.vf_slab and acc = ctx.acc in
  let io = ioff sidx in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then begin
        let ix = Array.unsafe_get ia (io + l) in
        Warp_access.record_at acc ms ix;
        if ix < 0 || ix >= len then
          trap "shared load out of bounds: %s[%d]" name ix;
        Array.unsafe_set dst (d + l) (Array.unsafe_get arr ix)
      end;
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

let v_load_si name slot len ms sidx d : vnode =
 fun ctx m ->
  let arr = Array.unsafe_get ctx.si slot in
  let ia = iarr ctx sidx and dst = ctx.vi_slab and acc = ctx.acc in
  let io = ioff sidx in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then begin
        let ix = Array.unsafe_get ia (io + l) in
        Warp_access.record_at acc ms ix;
        if ix < 0 || ix >= len then
          trap "shared load out of bounds: %s[%d]" name ix;
        Array.unsafe_set dst (d + l) (Array.unsafe_get arr ix)
      end;
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

let v_store_gf name (a : float array) base eb ms sidx sv : vnode =
  let len = Array.length a in
  fun ctx m ->
    let ia = iarr ctx sidx and va = farr ctx sv and acc = ctx.acc in
    let io = ioff sidx and vo = foff sv in
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let ix = Array.unsafe_get ia (io + l) in
          let x = Array.unsafe_get va (vo + l) in
          Warp_access.record_at acc ms (base + (ix * eb));
          if ix < 0 || ix >= len then
            trap "store out of bounds: %s[%d] (len %d)" name ix len;
          Array.unsafe_set a ix x
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

let v_store_gi name (a : int array) base eb ms sidx sv : vnode =
  let len = Array.length a in
  fun ctx m ->
    let ia = iarr ctx sidx and va = iarr ctx sv and acc = ctx.acc in
    let io = ioff sidx and vo = ioff sv in
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let ix = Array.unsafe_get ia (io + l) in
          let x = Array.unsafe_get va (vo + l) in
          Warp_access.record_at acc ms (base + (ix * eb));
          if ix < 0 || ix >= len then
            trap "store out of bounds: %s[%d] (len %d)" name ix len;
          Array.unsafe_set a ix x
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

let v_store_sf name slot len ms sidx sv : vnode =
 fun ctx m ->
  let arr = Array.unsafe_get ctx.sf slot in
  let ia = iarr ctx sidx and va = farr ctx sv and acc = ctx.acc in
  let io = ioff sidx and vo = foff sv in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then begin
        let ix = Array.unsafe_get ia (io + l) in
        let x = Array.unsafe_get va (vo + l) in
        Warp_access.record_at acc ms ix;
        if ix < 0 || ix >= len then
          trap "shared store out of bounds: %s[%d]" name ix;
        Array.unsafe_set arr ix x
      end;
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

let v_store_si name slot len ms sidx sv : vnode =
 fun ctx m ->
  let arr = Array.unsafe_get ctx.si slot in
  let ia = iarr ctx sidx and va = iarr ctx sv and acc = ctx.acc in
  let io = ioff sidx and vo = ioff sv in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then begin
        let ix = Array.unsafe_get ia (io + l) in
        let x = Array.unsafe_get va (vo + l) in
        Warp_access.record_at acc ms ix;
        if ix < 0 || ix >= len then
          trap "shared store out of bounds: %s[%d]" name ix;
        Array.unsafe_set arr ix x
      end;
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

(* Global atomics: per active lane, operands, contention record, bounds
   check, then the read-modify-write — the reference engine's per-lane
   order. The returning form ([rbase >= 0]) captures the pre-add value in
   its register row, which an operand row may alias: the lane's operands
   are read before it is written. *)

let v_atomic_f name (a : float array) sidx sv rbase : vnode =
  let len = Array.length a in
  fun ctx m ->
    let ia = iarr ctx sidx and va = farr ctx sv and acc = ctx.acc in
    let io = ioff sidx and vo = foff sv in
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let ix = Array.unsafe_get ia (io + l) in
          let x = Array.unsafe_get va (vo + l) in
          Warp_access.atomic_record acc ix;
          if ix < 0 || ix >= len then
            trap "load out of bounds: %s[%d] (len %d)" name ix len;
          let old = Array.unsafe_get a ix in
          if rbase >= 0 then Array.unsafe_set ctx.freg (rbase + l) old;
          Array.unsafe_set a ix (old +. x)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

let v_atomic_i name (a : int array) sidx sv rbase : vnode =
  let len = Array.length a in
  fun ctx m ->
    let ia = iarr ctx sidx and va = iarr ctx sv and acc = ctx.acc in
    let io = ioff sidx and vo = ioff sv in
    let rec go m l =
      if m <> 0 then begin
        if m land 1 <> 0 then begin
          let ix = Array.unsafe_get ia (io + l) in
          let x = Array.unsafe_get va (vo + l) in
          Warp_access.atomic_record acc ix;
          if ix < 0 || ix >= len then
            trap "load out of bounds: %s[%d] (len %d)" name ix len;
          let old = Array.unsafe_get a ix in
          if rbase >= 0 then Array.unsafe_set ctx.ireg (rbase + l) old;
          Array.unsafe_set a ix (old + x)
        end;
        go (m lsr 1) (l + 1)
      end
    in
    go m 0

(* mask extraction and loop-counter updates for vectorised control flow *)

let v_maskof src : ctx -> int -> int =
 fun ctx m ->
  let a = iarr ctx src in
  let o = ioff src in
  let rec go m l acc =
    if m = 0 then acc
    else
      go (m lsr 1) (l + 1)
        (if m land 1 <> 0 && Array.unsafe_get a (o + l) <> 0 then
           acc lor (1 lsl l)
         else acc)
  in
  go m 0 0

let v_iltmask rbase src : ctx -> int -> int =
 fun ctx m ->
  let a = ctx.ireg and b = iarr ctx src in
  let bo = ioff src in
  let rec go m l acc =
    if m = 0 then acc
    else
      go (m lsr 1) (l + 1)
        (if
           m land 1 <> 0
           && Array.unsafe_get a (rbase + l) < Array.unsafe_get b (bo + l)
         then acc lor (1 lsl l)
         else acc)
  in
  go m 0 0

(* Float.compare _ _ < 0 total order, like the reference For cond *)
let v_fltmask rbase src : ctx -> int -> int =
 fun ctx m ->
  let a = ctx.freg and b = farr ctx src in
  let bo = foff src in
  let rec go m l acc =
    if m = 0 then acc
    else
      go (m lsr 1) (l + 1)
        (let x = Array.unsafe_get a (rbase + l)
         and y = Array.unsafe_get b (bo + l) in
         if m land 1 <> 0 && (x < y || (x <> x && y = y)) then
           acc lor (1 lsl l)
         else acc)
  in
  go m 0 0

let v_iaddreg rbase src : vnode =
 fun ctx m ->
  let a = iarr ctx src and dst = ctx.ireg in
  let ao = ioff src in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then
        Array.unsafe_set dst (rbase + l)
          (Array.unsafe_get dst (rbase + l) + Array.unsafe_get a (ao + l));
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

let v_faddreg rbase src : vnode =
 fun ctx m ->
  let a = farr ctx src and dst = ctx.freg in
  let ao = foff src in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then
        Array.unsafe_set dst (rbase + l)
          (Array.unsafe_get dst (rbase + l) +. Array.unsafe_get a (ao + l));
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

(* Warp shuffles node-major: the whole warp's operand rows are fully
   written before the node runs (emission order), so cross-lane reads are
   ready. Convergence is checked against the statement's mask, which
   [shfl_pre] publishes in [cmask] (a lane-ordered replay runs the node
   under one-lane masks); with the full warp active every in-range
   existing source lane holds a valid row entry. Out-of-range or
   non-existent sources fall back to the lane's own value, like the
   reference engine. *)

let v_shfl_i kname ws src_of sa sl d : vnode =
 fun ctx m ->
  if ctx.cmask <> ctx.exists_mask then
    trap "kernel %s: warp shuffle under divergent control flow" kname;
  let a = iarr ctx sa and s = iarr ctx sl and dst = ctx.vi_slab in
  let ao = ioff sa and so = ioff sl in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then begin
        let src = src_of l (Array.unsafe_get s (so + l)) in
        Array.unsafe_set dst (d + l)
          (if src >= 0 && src < ws && ctx.exists_mask land (1 lsl src) <> 0
           then Array.unsafe_get a (ao + src)
           else Array.unsafe_get a (ao + l))
      end;
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

let v_shfl_f kname ws src_of sa sl d : vnode =
 fun ctx m ->
  if ctx.cmask <> ctx.exists_mask then
    trap "kernel %s: warp shuffle under divergent control flow" kname;
  let a = farr ctx sa and s = iarr ctx sl and dst = ctx.vf_slab in
  let ao = foff sa and so = ioff sl in
  let rec go m l =
    if m <> 0 then begin
      if m land 1 <> 0 then begin
        let src = src_of l (Array.unsafe_get s (so + l)) in
        Array.unsafe_set dst (d + l)
          (if src >= 0 && src < ws && ctx.exists_mask land (1 lsl src) <> 0
           then Array.unsafe_get a (ao + src)
           else Array.unsafe_get a (ao + l))
      end;
      go (m lsr 1) (l + 1)
    end
  in
  go m 0

(* ----- vector compilation ----- *)

let new_vstate env watch =
  {
    vg = env.vg;
    vws = env.ws;
    rev_nodes = [];
    ni = 0;
    nf = 0;
    rev_kinds = [];
    nmem = 0;
    watch;
    watched_rows = [];
  }

let vemit (st : vstate) n = st.rev_nodes <- n :: st.rev_nodes

let valloc_i (st : vstate) =
  let o = st.ni * st.vws in
  st.ni <- st.ni + 1;
  o

let valloc_f (st : vstate) =
  let o = st.nf * st.vws in
  st.nf <- st.nf + 1;
  o

let valloc_slot (st : vstate) kind =
  let s = st.nmem in
  st.rev_kinds <- kind :: st.rev_kinds;
  st.nmem <- s + 1;
  s

let vconst_i (st : vstate) v =
  let vg = st.vg in
  match Hashtbl.find_opt vg.itbl v with
  | Some o -> o
  | None ->
    let o = vg.nic * st.vws in
    vg.nic <- vg.nic + 1;
    vg.rev_ivals <- v :: vg.rev_ivals;
    Hashtbl.add vg.itbl v o;
    o

let vconst_f (st : vstate) x =
  let vg = st.vg in
  let key = Int64.bits_of_float x in
  match Hashtbl.find_opt vg.ftbl key with
  | Some o -> o
  | None ->
    let o = vg.nfc * st.vws in
    vg.nfc <- vg.nfc + 1;
    vg.rev_fvals <- x :: vg.rev_fvals;
    Hashtbl.add vg.ftbl key o;
    o

(* does the expression load from the given global / shared array? *)
let rec loads kind name (e : Kir.exp) =
  match e with
  | Kir.Load_g (n, i) ->
    (kind = Warp_access.Global && String.equal n name) || loads kind name i
  | Kir.Load_s (n, i) ->
    (kind = Warp_access.Shared && String.equal n name) || loads kind name i
  | Kir.Bin (_, a, b) | Kir.Cmp (_, a, b) ->
    loads kind name a || loads kind name b
  | Kir.Un (_, a) -> loads kind name a
  | Kir.Select (c, a, b) ->
    loads kind name c || loads kind name a || loads kind name b
  | Kir.Shfl_down (v, l) | Kir.Shfl_idx (v, l) ->
    loads kind name v || loads kind name l
  | Kir.Int _ | Kir.Float _ | Kir.Bool _ | Kir.Reg _ | Kir.Tid _ | Kir.Bid _
  | Kir.Bdim _ | Kir.Gdim _ | Kir.Param _ ->
    false

(* the array a statement writes, watched when its operands also load it *)
let watch_of kind name operands =
  if List.exists (loads kind name) operands then Some (kind, name) else None

(* note the index row of a load from the watched array *)
let watch_load (st : vstate) kind name sidx =
  match st.watch with
  | Some (k, n) when k = kind && String.equal n name ->
    st.watched_rows <- sidx :: st.watched_rows
  | _ -> ()

(* Emission order tracks the reference engine's per-lane evaluation
   order: a node's operand rows are fully written before the node runs
   for any lane, and memory slots are allocated exactly where the
   reference engine's per-lane record cursor would sit. Every form the
   node-major engine cannot stage faithfully raises [Fallback], handing
   the launch to the reference engine. *)
let rec vcompile_exp env (st : vstate) (e : Kir.exp) : vtexp =
  match cfold env e with
  | Some (CI n) -> VI (VIc (vconst_i st n))
  | Some (CF x) -> VF (VFc (vconst_f st x))
  | Some (CB b) -> VB (VIc (vconst_i st (if b then 1 else 0)))
  | None -> (
    match e with
    | Kir.Int _ | Kir.Float _ | Kir.Bool _ | Kir.Bdim _ | Kir.Gdim _
    | Kir.Param _ ->
      (* cfold always resolves these *)
      assert false
    | Kir.Reg r -> (
      let base = r * env.ws in
      match env.rt.(r) with
      | TI -> VI (VIr base)
      | TF -> VF (VFr base)
      | TB -> VB (VIr base))
    | Kir.Tid d ->
      VI (match d with Kir.X -> VTx | Kir.Y -> VTy | Kir.Z -> VTz)
    | Kir.Bid d ->
      let o = valloc_i st in
      vemit st (v_bid d env.ws o);
      VI (VIs o)
    | Kir.Bin (op, a, b) -> (
      (* right operand first, like the reference engine *)
      let tb = vcompile_exp env st b in
      let ta = vcompile_exp env st a in
      let open Ppat_ir.Exp in
      match op with
      | And | Or -> (
        match (ta, tb) with
        | VB xa, VB xb ->
          let d = valloc_i st in
          vemit st (v_ibin op xa xb d);
          VB (VIs d)
        | _ -> fallback "logical op on non-boolean")
      | Add | Sub | Mul | Div | Mod | Min | Max -> (
        match (ta, tb) with
        | VI xa, VI xb ->
          let d = valloc_i st in
          vemit st (v_ibin op xa xb d);
          VI (VIs d)
        | VF xa, VF xb ->
          if op = Mod then fallback "mod on floats";
          let d = valloc_f st in
          vemit st (v_fbin op xa xb d);
          VF (VFs d)
        | _ -> fallback "mixed-type arithmetic"))
    | Kir.Un (op, a) -> (
      let ta = vcompile_exp env st a in
      let open Ppat_ir.Exp in
      match (op, ta) with
      | Neg, VI x | Abs, VI x ->
        let d = valloc_i st in
        vemit st (v_iun op x d);
        VI (VIs d)
      | Not, VB x ->
        let d = valloc_i st in
        vemit st (v_iun op x d);
        VB (VIs d)
      | (Neg | Abs | Sqrt | Exp_ | Log_), VF x ->
        let d = valloc_f st in
        vemit st (v_fun_ op x d);
        VF (VFs d)
      | I2f, VI x ->
        let d = valloc_f st in
        vemit st (v_i2f x d);
        VF (VFs d)
      | F2i, VF x ->
        let d = valloc_i st in
        vemit st (v_f2i x d);
        VI (VIs d)
      | _ -> fallback "unop operand type mismatch")
    | Kir.Cmp (op, a, b) -> (
      let tb = vcompile_exp env st b in
      let ta = vcompile_exp env st a in
      match (ta, tb) with
      | VI xa, VI xb | VB xa, VB xb ->
        (* Bool.compare on canonical 0/1 is integer compare *)
        let d = valloc_i st in
        vemit st (v_icmp op xa xb d);
        VB (VIs d)
      | VF xa, VF xb ->
        let d = valloc_i st in
        vemit st (v_fcmp op xa xb d);
        VB (VIs d)
      | _ -> fallback "mixed-type comparison")
    | Kir.Select (c0, a, b) -> (
      let sc = vbool env st c0 in
      let ta = vcompile_exp env st a in
      let tb = vcompile_exp env st b in
      match (ta, tb) with
      | VI xa, VI xb ->
        let d = valloc_i st in
        vemit st (v_isel sc xa xb d);
        VI (VIs d)
      | VB xa, VB xb ->
        let d = valloc_i st in
        vemit st (v_isel sc xa xb d);
        VB (VIs d)
      | VF xa, VF xb ->
        let d = valloc_f st in
        vemit st (v_fsel sc xa xb d);
        VF (VFs d)
      | _ -> fallback "mixed-type select")
    | Kir.Load_g (name, i) -> (
      let entry = find_entry env name in
      let sidx = vint env st i in
      watch_load st Warp_access.Global name sidx;
      let ms = valloc_slot st Warp_access.Global in
      let base = entry.Memory.base and eb = entry.Memory.elem_bytes in
      match entry.Memory.data with
      | Ppat_ir.Host.F a ->
        let d = valloc_f st in
        vemit st (v_load_gf name a base eb ms sidx d);
        VF (VFs d)
      | Ppat_ir.Host.I a ->
        let d = valloc_i st in
        vemit st (v_load_gi name a base eb ms sidx d);
        VI (VIs d))
    | Kir.Load_s (name, i) -> (
      let sidx = vint env st i in
      watch_load st Warp_access.Shared name sidx;
      let ms = valloc_slot st Warp_access.Shared in
      match smem_ref env name with
      | Sf (slot, len) ->
        let d = valloc_f st in
        vemit st (v_load_sf name slot len ms sidx d);
        VF (VFs d)
      | Si (slot, len) ->
        let d = valloc_i st in
        vemit st (v_load_si name slot len ms sidx d);
        VI (VIs d))
    | Kir.Shfl_down (v, l) -> vshfl env st v l (fun lane d -> lane + d)
    | Kir.Shfl_idx (v, l) -> vshfl env st v l (fun _ src -> src))

(* the reference engine's loose coercions: an index or lane selector may
   be a boolean (0/1), a condition may be an integer (<> 0) *)
and vint env st e =
  match vcompile_exp env st e with
  | VI s | VB s -> s
  | VF _ -> fallback "expected an integer, got a float"

and vbool env st e =
  match vcompile_exp env st e with
  | VB s | VI s -> s
  | VF _ -> fallback "expected a boolean, got a float"

(* value row first, then the lane selector — the reference order *)
and vshfl env (st : vstate) v l src_of : vtexp =
  if has_mem v || has_mem l then
    fallback "warp-primitive operand reads memory";
  let kname = env.k.Kir.kname in
  let tv = vcompile_exp env st v in
  let sl = vint env st l in
  match tv with
  | VI sa ->
    let d = valloc_i st in
    vemit st (v_shfl_i kname env.ws src_of sa sl d);
    VI (VIs d)
  | VB sa ->
    let d = valloc_i st in
    vemit st (v_shfl_i kname env.ws src_of sa sl d);
    VB (VIs d)
  | VF sa ->
    let d = valloc_f st in
    vemit st (v_shfl_f kname env.ws src_of sa sl d);
    VF (VFs d)

let vfloat env st e =
  match vcompile_exp env st e with
  | VF s -> s
  | VI _ | VB _ -> fallback "expected a float"

(* Retire a fragment's nodes and slot kinds, folding its temp-slot use
   into the launch-wide slab sizing. *)
let vfinish (st : vstate) =
  let vg = st.vg in
  vg.max_ni <- max vg.max_ni st.ni;
  vg.max_nf <- max vg.max_nf st.nf;
  (Array.of_list (List.rev st.rev_nodes), Array.of_list (List.rev st.rev_kinds))

let run_nodes (nodes : vnode array) ctx mask =
  for i = 0 to Array.length nodes - 1 do
    (Array.unsafe_get nodes i) ctx mask
  done

(* Close a vector fragment into a runnable closure: slot setup, node run,
   flush when the fragment touches memory.  No instruction bump and no
   mask guard — the surrounding control flow does both. [sites] holds the
   fragment's per-slot site ids; slot allocation order equals the
   fragment's record order (both replay the reference evaluation order),
   so index s names slot s. *)
let vclose (st : vstate) (sites : int array) : ctx -> int -> unit =
  let nodes, kinds = vfinish st in
  let nmem = st.nmem in
  if nmem > 0 then (fun ctx mask ->
    Warp_access.set_sites ctx.acc sites;
    Warp_access.set_slots ctx.acc kinds nmem;
    run_nodes nodes ctx mask;
    Warp_access.flush ctx.acc)
  else run_nodes nodes

(* the flush-group site array of a straight-line statement's annotation *)
let simple_sites (a : Site.ann) =
  match a with Site.A_simple s -> s | _ -> Site.no_sites

(* operand sites and the atomic's own site; [-1] routes a malformed
   annotation to the overflow row instead of dropping the counts *)
let atomic_sites (a : Site.ann) =
  match a with Site.A_atomic (ops, s) -> (ops, s) | _ -> (Site.no_sites, -1)

(* ----- cross-lane read-after-write -----

   A statement that writes an array its operands also load is only
   node-major-exact if no lane's write is visible to a later lane's load:
   the reference engine runs lane by lane, so lane j's loads see the
   writes of every earlier active lane i < j, while the node-major pass
   loads for all lanes before writing any. By induction over the lanes,
   the two agree exactly when no earlier lane writes an element that a
   later lane loaded — [raw_conflict] tests that on the write's index row
   [sidx] against the watched loads' index rows. A prefix min/max of the
   written indices skips the lane scan for the common shapes (a lane
   rereading its own element, or reading a row the warp does not write). *)
let raw_conflict sidx (watched : visrc array) : ctx -> int -> bool =
  let so = ioff sidx in
  let nw = Array.length watched in
  fun ctx m ->
    let s = iarr ctx sidx in
    let hit = ref false and lo = ref max_int and hi = ref min_int in
    let rest = ref m and j = ref 0 in
    while !rest <> 0 && not !hit do
      if !rest land 1 <> 0 then begin
        for w = 0 to nw - 1 do
          let src = Array.unsafe_get watched w in
          let x = Array.unsafe_get (iarr ctx src) (ioff src + !j) in
          if x >= !lo && x <= !hi then
            for i = 0 to !j - 1 do
              if m land (1 lsl i) <> 0 && Array.unsafe_get s (so + i) = x then
                hit := true
            done
        done;
        let y = Array.unsafe_get s (so + !j) in
        if y < !lo then lo := y;
        if y > !hi then hi := y
      end;
      rest := !rest lsr 1;
      incr j
    done;
    !hit

(* Run every node for one lane at a time, in lane order: the reference
   engine's schedule, so each lane's loads see the earlier lanes' writes.
   Warp primitives stay exact — their operands are pure, so the rows the
   node-major pass filled still hold every lane's value. *)
let rec replay_lanes pre (fin : vnode) ctx m l =
  if m <> 0 then begin
    if m land 1 <> 0 then begin
      run_nodes pre ctx (1 lsl l);
      fin ctx (1 lsl l)
    end;
    replay_lanes pre fin ctx (m lsr 1) (l + 1)
  end

(* Operands node-major, then the write [fin] — unless the write would be
   visible to a later lane's load (or the node-major pass trapped on a
   value an earlier lane's write would have changed): then reset the
   slots and replay the whole statement lane by lane. *)
let checked pre fin conflict kinds nmem : vnode =
 fun ctx mask ->
  let exact =
    match run_nodes pre ctx mask with
    | () -> not (conflict ctx mask)
    | exception Simt_error.Trap _ -> false
  in
  if exact then fin ctx mask
  else begin
    Ppat_metrics.Metrics.incr Engine_metrics.lane_replays;
    Warp_access.set_slots ctx.acc kinds nmem;
    replay_lanes pre fin ctx mask 0
  end

(* Close a straight-line statement: its operand nodes, then [fin] — the
   register copy, store or atomic. [n] is the reference engine's
   instruction count for the statement, [ns] its shuffle count.
   [idx] is the write's index row, checked against the watched loads;
   [atomic] wraps the statement in the contention accounting of one warp
   atomic instruction. *)
let vstmt (st : vstate) sites ~n ~ns ?idx ?atomic (fin : vnode) : cstmt =
  Ppat_metrics.Metrics.incr Engine_metrics.vector_stmts;
  let pre, kinds = vfinish st in
  let nmem = st.nmem in
  let n = float_of_int n and ns = float_of_int ns in
  match (idx, st.watched_rows, atomic) with
  | None, _, None | Some _, [], None ->
    (* the common case: one flat node loop, inlined in the closure *)
    let nodes = Array.append pre [| fin |] in
    let nn = Array.length nodes in
    if nmem > 0 then (fun ctx mask ->
      shfl_pre ns ctx mask;
      bump ctx.stats n;
      if mask <> 0 then begin
        Warp_access.set_sites ctx.acc sites;
        Warp_access.set_slots ctx.acc kinds nmem;
        for i = 0 to nn - 1 do
          (Array.unsafe_get nodes i) ctx mask
        done;
        Warp_access.flush ctx.acc
      end)
    else fun ctx mask ->
      shfl_pre ns ctx mask;
      bump ctx.stats n;
      if mask <> 0 then
        for i = 0 to nn - 1 do
          (Array.unsafe_get nodes i) ctx mask
        done
  | _ ->
    let body =
      match (idx, st.watched_rows) with
      | Some sidx, (_ :: _ as rows) ->
        checked pre fin (raw_conflict sidx (Array.of_list rows)) kinds nmem
      | _ ->
        fun ctx mask ->
          run_nodes pre ctx mask;
          fin ctx mask
    in
    let asite, entry =
      match atomic with Some (s, e) -> (s, Some e) | None -> (-1, None)
    in
    fun ctx mask ->
      shfl_pre ns ctx mask;
      bump ctx.stats n;
      if mask <> 0 then begin
        if Option.is_some entry then Warp_access.atomic_begin ctx.acc;
        Warp_access.set_sites ctx.acc sites;
        Warp_access.set_slots ctx.acc kinds nmem;
        body ctx mask;
        Warp_access.flush ctx.acc;
        Option.iter (Warp_access.atomic_commit ctx.acc asite) entry
      end

(* Statement compilation. A straight-line statement is one node-major
   fragment. Control flow runs its branch/loop skeleton (divergence
   bookkeeping, per-iteration instruction bumps, the iteration guard)
   once per warp around node-major predicate/init/step fragments; each
   fragment compiles once and is replayed every iteration (temp slots are
   fragment-local, memory slots are re-armed per run by [vclose]'s
   set_slots). *)
let rec compile_stmt env (s : Kir.stmt) (a : Site.ann) : cstmt =
  let sites = simple_sites a in
  match s, a with
  | Kir.Set (r, e), _ ->
    let st = new_vstate env None in
    let base = r * env.ws in
    let fin =
      match (env.rt.(r), vcompile_exp env st e) with
      | TI, VI src | TB, VB src -> v_copy_i base src
      | TF, VF src -> v_copy_f base src
      | _ -> fallback "register/expression type mismatch"
    in
    vstmt st sites ~n:(nodes e) ~ns:(shfl_nodes e) fin
  | Kir.Store_g (name, i, v), _ ->
    let entry = find_entry env name in
    let st = new_vstate env (watch_of Warp_access.Global name [ i; v ]) in
    let sidx = vint env st i in
    let base = entry.Memory.base and eb = entry.Memory.elem_bytes in
    let fin =
      match entry.Memory.data with
      | Ppat_ir.Host.F a ->
        let sv = vfloat env st v in
        let ms = valloc_slot st Warp_access.Global in
        v_store_gf name a base eb ms sidx sv
      | Ppat_ir.Host.I a ->
        let sv = vint env st v in
        let ms = valloc_slot st Warp_access.Global in
        v_store_gi name a base eb ms sidx sv
    in
    vstmt st sites ~n:(1 + nodes i + nodes v)
      ~ns:(shfl_nodes i + shfl_nodes v) ~idx:sidx fin
  | Kir.Store_s (name, i, v), _ ->
    let sref = smem_ref env name in
    let st = new_vstate env (watch_of Warp_access.Shared name [ i; v ]) in
    let sidx = vint env st i in
    let fin =
      match sref with
      | Sf (slot, len) ->
        let sv = vfloat env st v in
        let ms = valloc_slot st Warp_access.Shared in
        v_store_sf name slot len ms sidx sv
      | Si (slot, len) ->
        let sv = vint env st v in
        let ms = valloc_slot st Warp_access.Shared in
        v_store_si name slot len ms sidx sv
    in
    vstmt st sites ~n:(1 + nodes i + nodes v)
      ~ns:(shfl_nodes i + shfl_nodes v) ~idx:sidx fin
  | ( Kir.Atomic_add_g (buf, idx, value)
    | Kir.Atomic_add_ret { buf; idx; value; _ } ),
    _ ->
    let ret_ty, rbase =
      match s with
      | Kir.Atomic_add_ret { reg; _ } ->
        (* the reference engine's shuffles re-read a source lane's
           register after that lane's atomic wrote it *)
        if shfl_nodes idx + shfl_nodes value > 0 then
          fallback "warp primitive in an atomic-return operand";
        (Some env.rt.(reg), reg * env.ws)
      | _ -> (None, -1)
    in
    let entry = find_entry env buf in
    let st = new_vstate env (watch_of Warp_access.Global buf [ idx; value ]) in
    let sidx = vint env st idx in
    let fin =
      match (entry.Memory.data, ret_ty) with
      | Ppat_ir.Host.F a, (None | Some TF) ->
        v_atomic_f buf a sidx (vfloat env st value) rbase
      | Ppat_ir.Host.I a, (None | Some TI) ->
        v_atomic_i buf a sidx (vint env st value) rbase
      | _ -> fallback "atomic return register type mismatch"
    in
    vstmt st (fst (atomic_sites a)) ~n:(1 + nodes idx + nodes value)
      ~ns:(shfl_nodes idx + shfl_nodes value) ~idx:sidx
      ~atomic:(snd (atomic_sites a), entry) fin
  | Kir.Sync, _ ->
    let kname = env.k.Kir.kname in
    fun ctx mask ->
      Barrier.sync kname ctx.stats ~converged:(mask = ctx.exists_mask)
  | Kir.Malloc_event, _ ->
    fun ctx mask ->
      ctx.stats.Stats.mallocs <-
        ctx.stats.Stats.mallocs +. float_of_int (popcount mask);
      ctx.stats.Stats.warp_insts <- ctx.stats.Stats.warp_insts +. 1.
  | Kir.If (c, t, e), Site.A_if (csites, bsite, ta, ea) ->
    Ppat_metrics.Metrics.incr Engine_metrics.vector_ctl;
    let st = new_vstate env None in
    let src = vbool env st c in
    let n = float_of_int (nodes c) in
    let ns_c = float_of_int (shfl_nodes c) in
    let run = vclose st csites in
    let ext = v_maskof src in
    let ct = compile_stmts env t ta in
    let ce = compile_stmts env e ea in
    let divergible = t <> [] || e <> [] in
    let has_else = e <> [] in
    fun ctx mask ->
      shfl_pre ns_c ctx mask;
      bump ctx.stats n;
      run ctx mask;
      (* every active lane lands in exactly one branch *)
      let taken = ext ctx mask in
      let fall = mask land lnot taken in
      let bt = taken <> 0 and bf = fall <> 0 in
      if bt && bf && divergible then begin
        ctx.stats.Stats.divergent_branches <-
          ctx.stats.Stats.divergent_branches +. 1.;
        if ctx.attr_on then Warp_access.attr_divergent ctx.acc bsite
      end;
      if bt then run_body ct ctx taken;
      if bf && has_else then run_body ce ctx fall
  | Kir.For { reg; lo; hi; step; body }, Site.A_for (los, his, sts, bsite, ba)
    ->
    Ppat_metrics.Metrics.incr Engine_metrics.vector_ctl;
    let base = reg * env.ws in
    let kname = env.k.Kir.kname in
    (* init, bound and step fragments; the bound is compared and the step
       added by the loop nodes themselves *)
    let fragment e sites operand emit =
      let st = new_vstate env None in
      let src = operand (vcompile_exp env st e) in
      Option.iter (fun f -> vemit st (f src)) emit;
      (src, vclose st sites)
    in
    let init, condr, cond_ext, stepf =
      match env.rt.(reg) with
      | TB -> fallback "boolean loop counter"
      | TI ->
        let operand = function
          | VI s -> s
          | _ -> fallback "integer expression expected"
        in
        let _, init = fragment lo los operand (Some (v_copy_i base)) in
        let s_hi, condr = fragment hi his operand None in
        let _, stepf = fragment step sts operand (Some (v_iaddreg base)) in
        (init, condr, v_iltmask base s_hi, stepf)
      | TF ->
        let operand = function
          | VF s -> s
          | _ -> fallback "float expression expected"
        in
        let _, init = fragment lo los operand (Some (v_copy_f base)) in
        let s_hi, condr = fragment hi his operand None in
        let _, stepf = fragment step sts operand (Some (v_faddreg base)) in
        (init, condr, v_fltmask base s_hi, stepf)
    in
    let cbody = compile_stmts env body ba in
    let n_lo = float_of_int (nodes lo) in
    let n_cond = float_of_int (nodes hi + 1) in
    let n_step = float_of_int (nodes step + 1) in
    let ns_lo = float_of_int (shfl_nodes lo) in
    let ns_cond = float_of_int (shfl_nodes hi) in
    let ns_step = float_of_int (shfl_nodes step) in
    fun ctx mask ->
      shfl_pre ns_lo ctx mask;
      bump ctx.stats n_lo;
      init ctx mask;
      let rec loop active iters =
        shfl_pre ns_cond ctx active;
        bump ctx.stats n_cond;
        condr ctx active;
        let next = cond_ext ctx active in
        if next <> 0 then begin
          if active land lnot next <> 0 then begin
            ctx.stats.Stats.divergent_branches <-
              ctx.stats.Stats.divergent_branches +. 1.;
            if ctx.attr_on then Warp_access.attr_divergent ctx.acc bsite
          end;
          run_body cbody ctx next;
          shfl_pre ns_step ctx next;
          bump ctx.stats n_step;
          stepf ctx next;
          let iters = iters + 1 in
          if iters > max_loop_iters then
            trap "kernel %s: loop exceeded %d iterations" kname max_loop_iters;
          loop next iters
        end
      in
      loop mask 0
  | Kir.While (c, body), Site.A_while (csites, bsite, ba) ->
    Ppat_metrics.Metrics.incr Engine_metrics.vector_ctl;
    let st = new_vstate env None in
    let src = vbool env st c in
    let n_c = float_of_int (nodes c) in
    let ns_c = float_of_int (shfl_nodes c) in
    let run = vclose st csites in
    let ext = v_maskof src in
    let cbody = compile_stmts env body ba in
    let kname = env.k.Kir.kname in
    fun ctx mask ->
      let rec loop active iters =
        shfl_pre ns_c ctx active;
        bump ctx.stats n_c;
        run ctx active;
        let next = ext ctx active in
        if next <> 0 then begin
          if active land lnot next <> 0 then begin
            ctx.stats.Stats.divergent_branches <-
              ctx.stats.Stats.divergent_branches +. 1.;
            if ctx.attr_on then Warp_access.attr_divergent ctx.acc bsite
          end;
          run_body cbody ctx next;
          let iters = iters + 1 in
          if iters > max_loop_iters then
            trap "kernel %s: loop exceeded %d iterations" kname max_loop_iters;
          loop next iters
        end
      in
      loop mask 0
  | (Kir.If _ | Kir.For _ | Kir.While _), _ ->
    fallback "site annotation shape mismatch"

and compile_stmts env l anns =
  Array.of_list (List.map2 (compile_stmt env) l anns)


(* ----- entry points ----- *)

let compile dev mem (l : Kir.launch) : (t, string) result =
  let k = l.kernel in
  let ws = dev.Device.warp_size in
  let bx, by, bz = l.block in
  let gx, gy, gz = l.grid in
  try
    if ws <= 0 || ws > Sys.int_size - 2 then
      fallback "warp size %d too wide for one mask word" ws;
    let sf_sizes = ref [] and si_sizes = ref [] and senv = ref [] in
    List.iter
      (fun (d : Kir.smem_decl) ->
        match smem_ty d with
        | TF ->
          let slot = List.length !sf_sizes in
          sf_sizes := !sf_sizes @ [ d.selems ];
          senv := !senv @ [ (d.sname, Sf (slot, d.selems)) ]
        | _ ->
          let slot = List.length !si_sizes in
          si_sizes := !si_sizes @ [ d.selems ];
          senv := !senv @ [ (d.sname, Si (slot, d.selems)) ])
      k.Kir.smem;
    let env0 =
      {
        dev;
        mem;
        k;
        ws;
        bx;
        by;
        bz;
        gx;
        gy;
        gz;
        kparams = l.kparams;
        rt = [||];
        smem_env = !senv;
        vg =
          {
            itbl = Hashtbl.create 16;
            ftbl = Hashtbl.create 16;
            rev_ivals = [];
            rev_fvals = [];
            nic = 0;
            nfc = 0;
            max_ni = 0;
            max_nf = 0;
          };
      }
    in
    let rt = infer_types env0 in
    check_definite_assignment k;
    let env = { env0 with rt } in
    (* the canonical annotation pass: compiled closures arm each flush
       group with exactly the site array the reference engine would use,
       so per-site attribution is engine-invariant *)
    let _, anns = Site.annotate k in
    let body = compile_stmts env k.Kir.body anns in
    Ok
      {
        c_launch = l;
        c_mem = mem;
        c_body = body;
        c_nregs = k.Kir.nregs;
        c_ws = ws;
        c_tpb = bx * by * bz;
        c_sf_sizes = Array.of_list !sf_sizes;
        c_si_sizes = Array.of_list !si_sizes;
        c_ni = env.vg.max_ni;
        c_nf = env.vg.max_nf;
        c_iconsts = Array.of_list (List.rev env.vg.rev_ivals);
        c_fconsts = Array.of_list (List.rev env.vg.rev_fvals);
      }
  with Fallback reason -> Error reason

let execute ?(jobs = 1) ?attr dev (c : t) : Stats.t =
  let ws = c.c_ws in
  let tpb = c.c_tpb in
  let bx, by, _ = c.c_launch.Kir.block in
  let gx, gy, gz = c.c_launch.Kir.grid in
  let warps_per_block = (tpb + ws - 1) / ws in
  (* Shared arrays and one context per warp slot are allocated once per
     worker and reused for every block that worker runs: register files
     can be several hundred words, and a fresh pair per warp lands
     straight on the major heap. Shared arrays are re-zeroed per block,
     matching the reference engine's fresh allocation; register files are
     zeroed per warp for the same reason. Thread indices and the exists
     mask only depend on the warp slot, so they are computed once here.
     The serial path builds one [Direct]-sinked state; each parallel
     worker builds its own with a [Log] sink (see Warp_access), so no
     mutable simulation state crosses domains. *)
  let make_state ?sink ?attr () =
    let stats = Stats.create () in
    let acc = Warp_access.create ?sink ?attr dev c.c_mem stats in
    let sf = Array.map (fun n -> Array.make n 0.) c.c_sf_sizes in
    let si = Array.map (fun n -> Array.make n 0) c.c_si_sizes in
    let vi_slab = Array.make (c.c_ni * ws) 0 in
    let vf_slab = Array.make (c.c_nf * ws) 0. in
    let vi_const = Array.make (Array.length c.c_iconsts * ws) 0 in
    let vf_const = Array.make (Array.length c.c_fconsts * ws) 0. in
    Array.iteri (fun j v -> Array.fill vi_const (j * ws) ws v) c.c_iconsts;
    Array.iteri (fun j v -> Array.fill vf_const (j * ws) ws v) c.c_fconsts;
    let slots =
      Array.init warps_per_block (fun w ->
          let lane0 = w * ws in
          let exists = ref 0 in
          for lane = 0 to ws - 1 do
            if lane0 + lane < tpb then exists := !exists lor (1 lsl lane)
          done;
          let tidx = Array.make ws 0
          and tidy = Array.make ws 0
          and tidz = Array.make ws 0 in
          for lane = 0 to ws - 1 do
            let t = lane0 + lane in
            tidx.(lane) <- t mod bx;
            tidy.(lane) <- t / bx mod by;
            tidz.(lane) <- t / (bx * by)
          done;
          {
            ireg = Array.make (c.c_nregs * ws) 0;
            freg = Array.make (c.c_nregs * ws) 0.;
            tidx;
            tidy;
            tidz;
            bidx = 0;
            bidy = 0;
            bidz = 0;
            exists_mask = !exists;
            cmask = 0;
            attr_on = Option.is_some attr;
            acc;
            stats;
            sf;
            si;
            vi_slab;
            vf_slab;
            vi_const;
            vf_const;
          })
    in
    (stats, sf, si, slots)
  in
  let run_block (sf, si, slots) bxi byi bzi =
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0.) sf;
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) si;
    Barrier.run_block warps_per_block (fun w ->
        let ctx = slots.(w) in
        if ctx.exists_mask <> 0 then begin
          Array.fill ctx.ireg 0 (Array.length ctx.ireg) 0;
          Array.fill ctx.freg 0 (Array.length ctx.freg) 0.;
          ctx.bidx <- bxi;
          ctx.bidy <- byi;
          ctx.bidz <- bzi;
          run_body c.c_body ctx ctx.exists_mask
        end)
  in
  let nblocks = gx * gy * gz in
  if jobs <= 1 || nblocks <= 1 then begin
    let stats, sf, si, slots = make_state ?attr () in
    for z = 0 to gz - 1 do
      for y = 0 to gy - 1 do
        for x = 0 to gx - 1 do
          run_block (sf, si, slots) x y z
        done
      done
    done;
    stats
  end
  else
    Par_launch.run ~jobs ~nblocks ?attr dev c.c_mem
      ~setup:(fun sink wattr ->
        let stats, sf, si, slots = make_state ~sink ?attr:wattr () in
        (stats, (sf, si, slots)))
      ~run_block:(fun st b ->
        run_block st (b mod gx) (b / gx mod gy) (b / (gx * gy)))
