open Ppat_ir
module M = Ppat_core.Mapping
module Kir = Ppat_kernel.Kir

type alloc_mode = Malloc | Prealloc | Prealloc_opt
type options = {
  alloc_mode : alloc_mode;
  smem_prefetch : bool;
  ordered_filter : bool;
  warp_sync : bool;
  shuffle : bool;
}

let default_options =
  {
    alloc_mode = Prealloc_opt;
    smem_prefetch = true;
    ordered_filter = false;
    warp_sync = true;
    shuffle = false;
  }

let effective_options () =
  match Ppat_gpu.Tuning.(env "PPAT_SHUFFLE" parse_bool) with
  | Some shuffle -> { default_options with shuffle }
  | None -> default_options

type temp = { tname : string; telem : Ty.scalar; telems : int }

type lowered = {
  launches : Kir.launch list;
  temps : temp list;
  notes : string list;
}

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt
let cdiv a b = (a + b - 1) / b

(* ----- Kir expression helpers with light constant folding ----- *)

let ik n = Kir.Int n

let ( +: ) a b =
  match a, b with
  | Kir.Int 0, x | x, Kir.Int 0 -> x
  | Kir.Int x, Kir.Int y -> ik (x + y)
  | _ -> Kir.Bin (Exp.Add, a, b)

let ( -: ) a b =
  match a, b with
  | x, Kir.Int 0 -> x
  | Kir.Int x, Kir.Int y -> ik (x - y)
  | _ -> Kir.Bin (Exp.Sub, a, b)

let ( *: ) a b =
  match a, b with
  | Kir.Int 1, x | x, Kir.Int 1 -> x
  | Kir.Int 0, _ | _, Kir.Int 0 -> ik 0
  | Kir.Int x, Kir.Int y -> ik (x * y)
  | _ -> Kir.Bin (Exp.Mul, a, b)

let ( <: ) a b = Kir.Cmp (Exp.Lt, a, b)
let ( =: ) a b = Kir.Cmp (Exp.Eq, a, b)

let and_ a b =
  match a, b with
  | Kir.Bool true, x | x, Kir.Bool true -> x
  | _ -> Kir.Bin (Exp.And, a, b)

let min_ a b =
  match a, b with
  | Kir.Int x, Kir.Int y -> ik (min x y)
  | _ -> Kir.Bin (Exp.Min, a, b)

let conj = function
  | [] -> None
  | c :: cs -> Some (List.fold_left and_ c cs)

let kdim = function M.X -> Kir.X | M.Y -> Kir.Y | M.Z -> Kir.Z

(* ----- lowering context ----- *)

type local_info = {
  gbuf : string;
  llen : int;
  lelem : Ty.scalar;
  lchain : int list;  (* enclosing pattern pids, outermost first *)
  llevel : int;
}

type ctx = {
  dev : Ppat_gpu.Device.t;
  prog : Pat.prog;
  params : (string * int) list;
  mapping : M.t;
  levels : Levels.t;
  sizes : int array;
  rb : Kir.Rb.t;
  opts : options;
  temps : temp list ref;
  notes : string list ref;
  kname : string;
  serial : bool;
  mutable smem : Kir.smem_decl list;
  mutable idx : (int * Kir.exp) list;
  mutable valids : Kir.exp list;
  mutable vars : (string * int) list;
  mutable var_tys : (string * Ty.scalar) list;
  mutable locals : (string * local_info) list;
  mutable prefetched : (string * Exp.t list * string) list;
      (* (buffer, syntactic indices, shared array) of reads served from a
         cooperative shared-memory prefetch (Section V-B) *)
}

let idx_exp ctx pid =
  match List.assoc_opt pid ctx.idx with
  | Some e -> e
  | None -> unsupported "pattern index i%d out of scope" pid

let var_reg ctx x =
  match List.assoc_opt x ctx.vars with
  | Some r -> r
  | None -> unsupported "unbound variable %S" x

(* ----- types (best-effort inference for register declarations) ----- *)

let join_ty a b =
  match a, b with
  | Ty.F64, _ | _, Ty.F64 -> Ty.F64
  | Ty.I32, _ | _, Ty.I32 -> Ty.I32
  | Ty.Bool, Ty.Bool -> Ty.Bool

let rec infer ctx (e : Exp.t) : Ty.scalar =
  match e with
  | Exp.Float _ -> Ty.F64
  | Exp.Int _ -> Ty.I32
  | Exp.Bool _ -> Ty.Bool
  | Exp.Idx _ | Exp.Param _ | Exp.Len _ -> Ty.I32
  | Exp.Var x -> (
    match List.assoc_opt x ctx.var_tys with Some t -> t | None -> Ty.F64)
  | Exp.Read (n, _) -> (
    match List.assoc_opt n ctx.locals with
    | Some li -> li.lelem
    | None -> (Pat.find_buffer ctx.prog n).elem)
  | Exp.Bin ((Exp.And | Exp.Or), _, _) -> Ty.Bool
  | Exp.Bin (_, a, b) -> join_ty (infer ctx a) (infer ctx b)
  | Exp.Un ((Exp.Sqrt | Exp.Exp_ | Exp.Log_ | Exp.I2f), _) -> Ty.F64
  | Exp.Un (Exp.F2i, _) -> Ty.I32
  | Exp.Un (Exp.Not, _) -> Ty.Bool
  | Exp.Un ((Exp.Neg | Exp.Abs), a) -> infer ctx a
  | Exp.Cmp _ -> Ty.Bool
  | Exp.Select (_, a, b) -> join_ty (infer ctx a) (infer ctx b)

(* ----- sizes and geometry ----- *)

let psize_static ctx = function
  | Pat.Sconst n -> Some n
  | Pat.Sparam p -> List.assoc_opt p ctx.params
  | Pat.Sexp e -> Exp.eval_int ~params:ctx.params e
  | Pat.Sdyn _ -> None

let block_extents mapping =
  ( M.block_extent mapping M.X,
    M.block_extent mapping M.Y,
    M.block_extent mapping M.Z )

let lin_tid ctx =
  let bx, by, bz = block_extents ctx.mapping in
  let t d extent = if extent = 1 then ik 0 else Kir.Tid d in
  t Kir.X bx +: (t Kir.Y by *: ik bx) +: (t Kir.Z bz *: ik (bx * by))

let dim_block_stride ctx (d : M.dim) =
  let bx, by, _ = block_extents ctx.mapping in
  match d with M.X -> 1 | M.Y -> bx | M.Z -> bx * by

(* ----- predication ----- *)

(* statements in the body of a level-l pattern must only take effect once
   per level-l element: threads covering deeper levels (tid or bid > 0 in
   those dimensions) are redundant executors *)
let leader_conds ctx level =
  if ctx.serial then []
  else begin
    let depth = ctx.levels.depth in
    let conds = ref [] in
    for l' = level + 1 to depth - 1 do
      let d = ctx.mapping.(l') in
      let dd = kdim d.M.dim in
      if d.M.bsize > 1 then conds := (Kir.Tid dd =: ik 0) :: !conds;
      if M.grid_extent ~sizes:ctx.sizes ctx.mapping d.M.dim > 1 then
        conds := (Kir.Bid dd =: ik 0) :: !conds
    done;
    List.rev !conds
  end

let pred_of ctx level = conj (ctx.valids @ leader_conds ctx level)

let wrap_pred pred stmts =
  match pred, stmts with
  | _, [] -> []
  | None, _ -> stmts
  | Some p, _ -> [ Kir.If (p, stmts, []) ]

(* ----- expression lowering ----- *)

let linearize_buffer ctx name (kidxs : Kir.exp list) =
  let b = Pat.find_buffer ctx.prog name in
  let dims = List.map (Ty.extent_value ctx.params) b.dims in
  if List.length kidxs <> List.length dims then
    unsupported "buffer %s: %d dims but %d indices" name (List.length dims)
      (List.length kidxs);
  let pairs =
    match b.blayout with
    | Pat.Row_major -> List.combine kidxs dims
    | Pat.Col_major -> List.rev (List.combine kidxs dims)
  in
  match pairs with
  | [] -> ik 0
  | (e0, _) :: rest ->
    List.fold_left (fun acc (e, d) -> (acc *: ik d) +: e) e0 rest

(* physical index into the pre-allocated backing store of a local array:
   dimensions are the enclosing levels plus the local's own extent, ordered
   outer-major (Malloc/Prealloc) or with the dimension-x level innermost
   (Prealloc_opt, Figure 11) *)
let local_index ctx li (j : Kir.exp) =
  let comps =
    List.mapi
      (fun l pid -> (l, idx_exp ctx pid, ctx.sizes.(l)))
      li.lchain
    @ [ (li.llevel, j, li.llen) ]
  in
  let ordered =
    match ctx.opts.alloc_mode with
    | Malloc | Prealloc -> comps
    | Prealloc_opt ->
      (* stable sort, slowest-varying dimension first: z, then y, then x *)
      List.stable_sort
        (fun (l1, _, _) (l2, _, _) ->
          compare
            (M.dim_index ctx.mapping.(l2).M.dim)
            (M.dim_index ctx.mapping.(l1).M.dim))
        comps
  in
  match ordered with
  | [] -> ik 0
  | (_, e0, _) :: rest ->
    List.fold_left (fun acc (_, e, d) -> (acc *: ik d) +: e) e0 rest

let rec lower_exp ctx (e : Exp.t) : Kir.exp =
  match e with
  | Exp.Int n -> ik n
  | Exp.Float x -> Kir.Float x
  | Exp.Bool b -> Kir.Bool b
  | Exp.Idx pid -> idx_exp ctx pid
  | Exp.Param p ->
    if List.mem_assoc p ctx.params then Kir.Param p
    else unsupported "unbound parameter %S" p
  | Exp.Var x -> Kir.Reg (var_reg ctx x)
  | Exp.Len name -> (
    match List.assoc_opt name ctx.locals with
    | Some li -> ik li.llen
    | None -> unsupported "len of unknown local array %S" name)
  | Exp.Read (name, idxs)
    when List.exists
           (fun (b, ix, _) -> String.equal b name && ix = idxs)
           ctx.prefetched -> (
    (* this read was cooperatively staged into shared memory: serve it from
       there, indexed by the level-0 offset within the block *)
    let _, _, pf =
      List.find
        (fun (b, ix, _) -> String.equal b name && ix = idxs)
        ctx.prefetched
    in
    let d0 = ctx.mapping.(0) in
    match ctx.levels.per_level.(0) with
    | [ p0 ] ->
      let base = Kir.Bid (kdim d0.M.dim) *: ik d0.M.bsize in
      Kir.Load_s (pf, idx_exp ctx p0.Pat.pid -: base)
    | _ -> unsupported "prefetch with multiple level-0 patterns")
  | Exp.Read (name, idxs) -> (
    let kidxs = List.map (lower_exp ctx) idxs in
    match List.assoc_opt name ctx.locals with
    | Some li -> (
      match kidxs with
      | [ j ] -> Kir.Load_g (li.gbuf, local_index ctx li j)
      | _ -> unsupported "local array %S with %d indices" name
               (List.length kidxs))
    | None -> Kir.Load_g (name, linearize_buffer ctx name kidxs))
  | Exp.Bin (op, a, b) -> Kir.Bin (op, lower_exp ctx a, lower_exp ctx b)
  | Exp.Un (op, a) -> Kir.Un (op, lower_exp ctx a)
  | Exp.Cmp (op, a, b) -> Kir.Cmp (op, lower_exp ctx a, lower_exp ctx b)
  | Exp.Select (c, a, b) ->
    Kir.Select (lower_exp ctx c, lower_exp ctx a, lower_exp ctx b)

let store_target ctx name kidxs v =
  match List.assoc_opt name ctx.locals with
  | Some li -> (
    match kidxs with
    | [ j ] -> Kir.Store_g (li.gbuf, local_index ctx li j, v)
    | _ -> unsupported "local array %S with %d indices" name
             (List.length kidxs))
  | None -> Kir.Store_g (name, linearize_buffer ctx name kidxs, v)

let atomic_target ctx name kidxs v =
  match List.assoc_opt name ctx.locals with
  | Some li -> (
    match kidxs with
    | [ j ] -> Kir.Atomic_add_g (li.gbuf, local_index ctx li j, v)
    | _ -> unsupported "local array %S with %d indices" name
             (List.length kidxs))
  | None -> Kir.Atomic_add_g (name, linearize_buffer ctx name kidxs, v)

(* does a generated statement list contain a barrier? (needed to reject
   barriers under non-uniform dynamic loops) *)
let rec has_sync stmts =
  List.exists
    (function
      | Kir.Sync -> true
      | Kir.If (_, t, e) -> has_sync t || has_sync e
      | Kir.For { body; _ } | Kir.While (_, body) -> has_sync body
      | Kir.Set _ | Kir.Store_g _ | Kir.Store_s _ | Kir.Atomic_add_g _
      | Kir.Atomic_add_ret _ | Kir.Malloc_event ->
        false)
    stmts

(* ----- statement lowering ----- *)

let rec scoped : 'a. ctx -> (unit -> 'a) -> 'a =
 fun ctx f ->
  let saved_vars = ctx.vars
  and saved_tys = ctx.var_tys
  and saved_locals = ctx.locals in
  let r = f () in
  ctx.vars <- saved_vars;
  ctx.var_tys <- saved_tys;
  ctx.locals <- saved_locals;
  r

(* lower a body without closing its scope: bindings stay visible for the
   caller (which lowers the pattern's yield in the same scope) *)
and lower_open ctx level stmts : Kir.stmt list =
  List.concat_map (lower_stmt ctx level) stmts

and lower_stmts ctx level stmts : Kir.stmt list =
  scoped ctx (fun () -> lower_open ctx level stmts)

and lower_stmt ctx level (s : Pat.stmt) : Kir.stmt list =
  match s with
  | Pat.Let (x, e) ->
    let ty = infer ctx e in
    let r = Kir.Rb.fresh ctx.rb x in
    Kir.Rb.set_type ctx.rb r ty;
    let e' = lower_exp ctx e in
    ctx.vars <- (x, r) :: ctx.vars;
    ctx.var_tys <- (x, ty) :: ctx.var_tys;
    [ Kir.Set (r, e') ]
  | Pat.Assign (x, e) -> [ Kir.Set (var_reg ctx x, lower_exp ctx e) ]
  | Pat.Store (name, idxs, e) ->
    let kidxs = List.map (lower_exp ctx) idxs in
    let v = lower_exp ctx e in
    wrap_pred (pred_of ctx level) [ store_target ctx name kidxs v ]
  | Pat.Atomic_add (name, idxs, e) ->
    let kidxs = List.map (lower_exp ctx) idxs in
    let v = lower_exp ctx e in
    wrap_pred (pred_of ctx level) [ atomic_target ctx name kidxs v ]
  | Pat.Nested n -> emit_nested ctx n
  | Pat.If (c, t, e) ->
    let c' = lower_exp ctx c in
    [ Kir.If (c', lower_stmts ctx level t, lower_stmts ctx level e) ]
  | Pat.For (x, lo, hi, body) ->
    let lo' = lower_exp ctx lo and hi' = lower_exp ctx hi in
    let r = Kir.Rb.fresh ctx.rb x in
    Kir.Rb.set_type ctx.rb r Ty.I32;
    let saved = ctx.vars and saved_tys = ctx.var_tys in
    ctx.vars <- (x, r) :: ctx.vars;
    ctx.var_tys <- (x, Ty.I32) :: ctx.var_tys;
    let b = lower_stmts ctx level body in
    ctx.vars <- saved;
    ctx.var_tys <- saved_tys;
    [ Kir.For { reg = r; lo = lo'; hi = hi'; step = ik 1; body = b } ]
  | Pat.While (c, body) ->
    let b = lower_stmts ctx level body in
    [ Kir.While (lower_exp ctx c, b) ]

(* emit the index-domain iteration of a pattern: binds the pattern's index
   register, pushes a validity flag, and invokes [per_index] once in the
   right loop structure. Loop trip counts are uniform across the block
   whenever the size is known at launch, so barriers inside [per_index]
   stay in uniform control flow. *)
and emit_domain ctx (p : Pat.pattern) ~(per_index : Kir.exp -> Kir.stmt list)
    : Kir.stmt list =
  let level = Levels.level_of ctx.levels p.pid in
  let d = ctx.mapping.(level) in
  let dd = kdim d.M.dim in
  let bs = d.M.bsize in
  let idx_r = Kir.Rb.fresh ctx.rb ("i_" ^ p.label) in
  Kir.Rb.set_type ctx.rb idx_r Ty.I32;
  ctx.idx <- (p.pid, Kir.Reg idx_r) :: ctx.idx;
  let static = psize_static ctx p.size in
  (* uniform-trip scheme over [base + k*stride < bound] *)
  let uniform ~base ~stride ~trips ~bound ~exact =
    if trips <= 0 then []
    else begin
      let mk raw_exp =
        if exact then begin
          let setup = [ Kir.Set (idx_r, raw_exp) ] in
          setup @ per_index (Kir.Bool true)
        end
        else begin
          let raw_r = Kir.Rb.fresh ctx.rb ("raw_" ^ p.label) in
          Kir.Rb.set_type ctx.rb raw_r Ty.I32;
          let v_r = Kir.Rb.fresh ctx.rb ("ok_" ^ p.label) in
          Kir.Rb.set_type ctx.rb v_r Ty.Bool;
          let setup =
            [
              Kir.Set (raw_r, raw_exp);
              Kir.Set (v_r, Kir.Reg raw_r <: bound);
              Kir.Set (idx_r, min_ (Kir.Reg raw_r) (bound -: ik 1));
            ]
          in
          ctx.valids <- Kir.Reg v_r :: ctx.valids;
          let body = per_index (Kir.Reg v_r) in
          ctx.valids <- List.tl ctx.valids;
          setup @ body
        end
      in
      if trips = 1 then mk base
      else begin
        let k = Kir.Rb.fresh ctx.rb ("k_" ^ p.label) in
        Kir.Rb.set_type ctx.rb k Ty.I32;
        [
          Kir.For
            {
              reg = k;
              lo = ik 0;
              hi = ik trips;
              step = ik 1;
              body = mk (base +: (Kir.Reg k *: ik stride));
            };
        ]
      end
    end
  in
  match d.M.span, static with
  | M.Span n, Some size ->
    let gext = max 1 (cdiv size (bs * max 1 n)) in
    let stride = bs * gext in
    let trips = cdiv size stride in
    let base = (Kir.Bid dd *: ik bs) +: Kir.Tid dd in
    uniform ~base ~stride ~trips ~bound:(ik size)
      ~exact:(trips * stride = size)
  | M.Span_all, Some size ->
    let trips = cdiv size bs in
    uniform ~base:(Kir.Tid dd) ~stride:bs ~trips ~bound:(ik size)
      ~exact:(trips * bs = size)
  | M.Span_all, None ->
    (* dynamic size: per-thread loop; trips differ across threads, so no
       barrier may occur inside *)
    let size_e =
      match p.size with
      | Pat.Sdyn e -> lower_exp ctx e
      | _ -> assert false
    in
    let body = per_index (Kir.Bool true) in
    if has_sync body then
      unsupported
        "pattern %s: barrier inside a dynamically-sized loop (parallel \
         reduction nested under a dynamic level)"
        p.label;
    [
      Kir.For
        {
          reg = idx_r;
          lo = Kir.Tid dd;
          hi = size_e;
          step = ik bs;
          body;
        };
    ]
  | M.Split k, Some size ->
    let chunk = cdiv size k in
    let hi_r = Kir.Rb.fresh ctx.rb ("hi_" ^ p.label) in
    Kir.Rb.set_type ctx.rb hi_r Ty.I32;
    let set_hi =
      Kir.Set (hi_r, min_ (ik size) ((Kir.Bid dd +: ik 1) *: ik chunk))
    in
    let base = (Kir.Bid dd *: ik chunk) +: Kir.Tid dd in
    let trips = cdiv chunk bs in
    set_hi
    :: uniform ~base ~stride:bs ~trips ~bound:(Kir.Reg hi_r) ~exact:false
  | (M.Span _ | M.Split _), None ->
    unsupported "pattern %s: Span(n)/Split on a dynamically-sized level"
      p.label

and emit_nested ctx (n : Pat.nested) : Kir.stmt list =
  let p = n.pat in
  let lvl = Levels.level_of ctx.levels p.pid in
  match p.kind with
  | Pat.Foreach ->
    emit_domain ctx p ~per_index:(fun _ -> lower_stmts ctx lvl p.body)
  | Pat.Map { yield } ->
    let name = Option.get n.bind in
    let llen =
      match psize_static ctx p.size with
      | Some s -> s
      | None -> unsupported "local array %S with dynamic size" name
    in
    (* enclosing chain: one pattern per level above this one *)
    let chain =
      List.filter_map
        (fun l ->
          List.find_map
            (fun (pid, _) ->
              if Levels.level_of ctx.levels pid = l then Some pid else None)
            ctx.idx)
        (List.init lvl (fun i -> i))
    in
    if List.length chain <> lvl then
      unsupported "local array %S: enclosing indices not in scope" name;
    let li =
      {
        gbuf = ctx.kname ^ "_" ^ name;
        llen;
        lelem = Ty.F64;
        lchain = chain;
        llevel = lvl;
      }
    in
    let outer_elems =
      List.fold_left (fun acc l -> acc * ctx.sizes.(l)) 1
        (List.init lvl (fun i -> i))
    in
    ctx.temps :=
      { tname = li.gbuf; telem = li.lelem; telems = outer_elems * llen }
      :: !(ctx.temps);
    let malloc =
      match ctx.opts.alloc_mode with
      | Malloc ->
        wrap_pred (pred_of ctx (lvl - 1)) [ Kir.Malloc_event ]
      | Prealloc | Prealloc_opt -> []
    in
    ctx.locals <- (name, li) :: ctx.locals;
    let dom =
      emit_domain ctx p ~per_index:(fun _valid ->
          scoped ctx (fun () ->
              let b = lower_open ctx lvl p.body in
              let y = lower_exp ctx yield in
              b
              @ wrap_pred (pred_of ctx lvl)
                  [
                    Kir.Store_g
                      (li.gbuf, local_index ctx li (idx_exp ctx p.pid), y);
                  ]))
    in
    let publish =
      if (not ctx.serial) && ctx.mapping.(lvl).M.bsize > 1 then [ Kir.Sync ]
      else []
    in
    malloc @ dom @ publish
  | Pat.Reduce { yield; r } ->
    emit_reduce ctx p r yield ~sink:(`Var (Option.get n.bind))
  | Pat.Arg_min { yield } ->
    emit_argmin ctx p yield ~sink:(`Var (Option.get n.bind))
  | Pat.Filter _ -> unsupported "nested filter (%s)" p.label
  | Pat.Group_by _ -> unsupported "nested group_by (%s)" p.label

(* combine the accumulator register with a value expression through the
   user combiner (which refers to its operands as Var r.a / Var r.b) *)
and combine_into ctx (r : Pat.reducer) acc ty (b_exp : Kir.exp) :
    Kir.stmt list =
  let tmpb = Kir.Rb.fresh ctx.rb ("cv_" ^ r.b) in
  Kir.Rb.set_type ctx.rb tmpb ty;
  let saved = ctx.vars and saved_tys = ctx.var_tys in
  ctx.vars <- (r.a, acc) :: (r.b, tmpb) :: ctx.vars;
  ctx.var_tys <- (r.a, ty) :: (r.b, ty) :: ctx.var_tys;
  let c' = lower_exp ctx r.combine in
  ctx.vars <- saved;
  ctx.var_tys <- saved_tys;
  [ Kir.Set (tmpb, b_exp); Kir.Set (acc, c') ]

(* block-level tree reduction across the block dimension of level [lvl]
   (the shared-memory template of Figure 9) *)
and emit_tree ctx lvl ty acc ~combine : Kir.stmt list =
  let d = ctx.mapping.(lvl) in
  let dd = kdim d.M.dim in
  let bs = d.M.bsize in
  if bs land (bs - 1) <> 0 then
    unsupported "block size %d is not a power of two" bs;
  let ws = ctx.dev.Ppat_gpu.Device.warp_size in
  if ctx.opts.shuffle && d.M.dim = M.X && bs <= ws then
    emit_shfl_tree ctx dd bs ty acc ~combine
  else begin
  let bx, by, bz = block_extents ctx.mapping in
  let tpb = bx * by * bz in
  let sm = Printf.sprintf "red%d" (List.length ctx.smem) in
  ctx.smem <- { Kir.sname = sm; selem = ty; selems = tpb } :: ctx.smem;
  let lin = lin_tid ctx in
  let stride = dim_block_stride ctx d.M.dim in
  let stmts = ref [ Kir.Store_s (sm, lin, Kir.Reg acc); Kir.Sync ] in
  let t1 = Kir.Rb.fresh ctx.rb "tr_a" in
  Kir.Rb.set_type ctx.rb t1 ty;
  (* rounds whose partners stay inside one warp need no barrier when the
     reduction runs along x (warp-synchronous technique, paper Figure 9) *)
  let needs_sync s =
    (not ctx.opts.warp_sync)
    || d.M.dim <> M.X
    || s > ctx.dev.Ppat_gpu.Device.warp_size / 2
  in
  let s = ref (bs / 2) in
  while !s >= 1 do
    let step =
      [
        Kir.If
          ( Kir.Tid dd <: ik !s,
            [ Kir.Set (t1, Kir.Load_s (sm, lin)) ]
            @ combine t1 (Kir.Load_s (sm, lin +: ik (!s * stride)))
            @ [ Kir.Store_s (sm, lin, Kir.Reg t1) ],
            [] );
      ]
      @ (if needs_sync !s then [ Kir.Sync ] else [])
    in
    stmts := !stmts @ step;
    s := !s / 2
  done;
  (* if tail barriers were dropped, lanes in other warps of the same row
     must still wait before reading the row leader's result *)
  let final_sync =
    if (not (needs_sync 1)) && bs > ctx.dev.Ppat_gpu.Device.warp_size then
      [ Kir.Sync ]
    else []
  in
  (* when the broadcast read crosses warps, a barrier must also follow
     it: re-entering the tree (nested inside a sequential loop) would
     otherwise overwrite the slot while other warps still read it *)
  let reuse_sync =
    if d.M.dim <> M.X || bs > ctx.dev.Ppat_gpu.Device.warp_size then
      [ Kir.Sync ]
    else []
  in
  !stmts @ final_sync
  @ [ Kir.Set (acc, Kir.Load_s (sm, lin -: (Kir.Tid dd *: ik stride))) ]
  @ reuse_sync
  end

(* shuffle synthesis for a warp-fitting x-dimension tree reduction: the
   same pairing and combine order as the shared-memory template, but the
   partner value travels through the register file. Each round shuffles
   *outside* the guard (warp primitives must run converged) and only the
   surviving half folds the partner in; the final [Shfl_idx] replays the
   smem template's broadcast read of the row leader's slot. No shared
   memory, no barriers. *)
and emit_shfl_tree ctx dd bs ty acc ~combine : Kir.stmt list =
  let ws = ctx.dev.Ppat_gpu.Device.warp_size in
  let t1 = Kir.Rb.fresh ctx.rb "tr_a" in
  Kir.Rb.set_type ctx.rb t1 ty;
  let stmts = ref [] in
  let s = ref (bs / 2) in
  while !s >= 1 do
    stmts :=
      !stmts
      @ [
          Kir.Set (t1, Kir.Shfl_down (Kir.Reg acc, ik !s));
          Kir.If (Kir.Tid dd <: ik !s, combine acc (Kir.Reg t1), []);
        ];
    s := !s / 2
  done;
  (* rows are bs wide, bs | ws, so a row never straddles a warp: the row
     leader sits at (own warp lane) - tid.x *)
  let leader =
    if bs = ws then ik 0
    else Kir.Bin (Exp.Mod, lin_tid ctx, ik ws) -: Kir.Tid dd
  in
  !stmts @ [ Kir.Set (acc, Kir.Shfl_idx (Kir.Reg acc, leader)) ]

and emit_reduce ctx (p : Pat.pattern) (r : Pat.reducer) (yield : Exp.t)
    ~(sink :
       [ `Var of string
       | `Out of string
       | `Partial of string * Kir.exp * int ]) : Kir.stmt list =
  let lvl = Levels.level_of ctx.levels p.pid in
  let d = ctx.mapping.(lvl) in
  let ty = infer ctx r.init in
  let acc = Kir.Rb.fresh ctx.rb ("acc_" ^ p.label) in
  Kir.Rb.set_type ctx.rb acc ty;
  let init_k = lower_exp ctx r.init in
  (match d.M.span, sink with
   | M.Split _, (`Var _ | `Out _) ->
     unsupported "reduce %s: Split without a combiner sink" p.label
   | _ -> ());
  let dom =
    emit_domain ctx p ~per_index:(fun valid ->
        scoped ctx (fun () ->
            let b = lower_open ctx lvl p.body in
            let y = lower_exp ctx yield in
            let y' =
              match valid with
              | Kir.Bool true -> y
              | v -> Kir.Select (v, y, init_k)
            in
            b @ combine_into ctx r acc ty y'))
  in
  let tree =
    if (not ctx.serial) && d.M.bsize > 1 then
      emit_tree ctx lvl ty acc ~combine:(fun t e -> combine_into ctx r t ty e)
    else []
  in
  let prologue = (Kir.Set (acc, init_k) :: dom) @ tree in
  match sink with
  | `Var x ->
    ctx.vars <- (x, acc) :: ctx.vars;
    ctx.var_tys <- (x, ty) :: ctx.var_tys;
    prologue
  | `Out buf ->
    let own =
      if d.M.bsize > 1 then [ Kir.Tid (kdim d.M.dim) =: ik 0 ] else []
    in
    prologue
    @ wrap_pred
        (conj (ctx.valids @ own @ leader_conds ctx lvl))
        [ Kir.Store_g (buf, ik 0, Kir.Reg acc) ]
  | `Partial (pbuf, outer_flat, k) ->
    let own =
      if d.M.bsize > 1 then [ Kir.Tid (kdim d.M.dim) =: ik 0 ] else []
    in
    prologue
    @ wrap_pred
        (conj (ctx.valids @ own @ leader_conds ctx lvl))
        [
          Kir.Store_g
            (pbuf, (outer_flat *: ik k) +: Kir.Bid (kdim d.M.dim), Kir.Reg acc);
        ]

and emit_argmin ctx (p : Pat.pattern) (yield : Exp.t)
    ~(sink : [ `Var of string | `Out of string ]) : Kir.stmt list =
  let lvl = Levels.level_of ctx.levels p.pid in
  let d = ctx.mapping.(lvl) in
  let bestv = Kir.Rb.fresh ctx.rb ("bv_" ^ p.label) in
  Kir.Rb.set_type ctx.rb bestv Ty.F64;
  let besti = Kir.Rb.fresh ctx.rb ("bi_" ^ p.label) in
  Kir.Rb.set_type ctx.rb besti Ty.I32;
  let huge = Kir.Float 1e308 in
  let dom =
    emit_domain ctx p ~per_index:(fun valid ->
        scoped ctx (fun () ->
        let b = lower_open ctx lvl p.body in
        let yr = Kir.Rb.fresh ctx.rb ("y_" ^ p.label) in
        Kir.Rb.set_type ctx.rb yr Ty.F64;
        let y = lower_exp ctx yield in
        b
        @ [
            Kir.Set (yr, y);
            Kir.If
              ( and_ valid (Kir.Reg yr <: Kir.Reg bestv),
                [
                  Kir.Set (bestv, Kir.Reg yr);
                  Kir.Set (besti, idx_exp ctx p.pid);
                ],
                [] );
          ]))
  in
  let tree =
    if (not ctx.serial) && d.M.bsize > 1 then begin
      let dd = kdim d.M.dim in
      let bs = d.M.bsize in
      if bs land (bs - 1) <> 0 then
        unsupported "block size %d is not a power of two" bs;
      let ws = ctx.dev.Ppat_gpu.Device.warp_size in
      if ctx.opts.shuffle && d.M.dim = M.X && bs <= ws then begin
        (* shuffle synthesis: the value/index pair travels as two paired
           shuffles; the tie-break logic is the smem template's, evaluated
           on registers instead of shared slots *)
        let ov = Kir.Rb.fresh ctx.rb "am_ov" in
        Kir.Rb.set_type ctx.rb ov Ty.F64;
        let oi = Kir.Rb.fresh ctx.rb "am_oi" in
        Kir.Rb.set_type ctx.rb oi Ty.I32;
        let stmts = ref [] in
        let s = ref (bs / 2) in
        while !s >= 1 do
          let better =
            Kir.Bin
              ( Exp.Or,
                Kir.Reg ov <: Kir.Reg bestv,
                and_
                  (Kir.Cmp (Exp.Eq, Kir.Reg ov, Kir.Reg bestv))
                  (Kir.Reg oi <: Kir.Reg besti) )
          in
          stmts :=
            !stmts
            @ [
                Kir.Set (ov, Kir.Shfl_down (Kir.Reg bestv, ik !s));
                Kir.Set (oi, Kir.Shfl_down (Kir.Reg besti, ik !s));
                Kir.If
                  ( Kir.Tid dd <: ik !s,
                    [
                      Kir.If
                        ( better,
                          [
                            Kir.Set (bestv, Kir.Reg ov);
                            Kir.Set (besti, Kir.Reg oi);
                          ],
                          [] );
                    ],
                    [] );
              ];
          s := !s / 2
        done;
        let leader =
          if bs = ws then ik 0
          else Kir.Bin (Exp.Mod, lin_tid ctx, ik ws) -: Kir.Tid dd
        in
        !stmts
        @ [
            Kir.Set (besti, Kir.Shfl_idx (Kir.Reg besti, leader));
            Kir.Set (bestv, Kir.Shfl_idx (Kir.Reg bestv, leader));
          ]
      end
      else begin
      let bx, by, bz = block_extents ctx.mapping in
      let tpb = bx * by * bz in
      let smv = Printf.sprintf "amv%d" (List.length ctx.smem) in
      ctx.smem <- { Kir.sname = smv; selem = Ty.F64; selems = tpb } :: ctx.smem;
      let smi = Printf.sprintf "ami%d" (List.length ctx.smem) in
      ctx.smem <- { Kir.sname = smi; selem = Ty.I32; selems = tpb } :: ctx.smem;
      let lin = lin_tid ctx in
      let stride = dim_block_stride ctx d.M.dim in
      let ov = Kir.Rb.fresh ctx.rb "am_ov" in
      Kir.Rb.set_type ctx.rb ov Ty.F64;
      let oi = Kir.Rb.fresh ctx.rb "am_oi" in
      Kir.Rb.set_type ctx.rb oi Ty.I32;
      let stmts =
        ref
          [
            Kir.Store_s (smv, lin, Kir.Reg bestv);
            Kir.Store_s (smi, lin, Kir.Reg besti);
            Kir.Sync;
          ]
      in
      let s = ref (bs / 2) in
      while !s >= 1 do
        let other = lin +: ik (!s * stride) in
        let better =
          Kir.Bin
            ( Exp.Or,
              Kir.Reg ov <: Kir.Load_s (smv, lin),
              and_
                (Kir.Cmp (Exp.Eq, Kir.Reg ov, Kir.Load_s (smv, lin)))
                (Kir.Reg oi <: Kir.Load_s (smi, lin)) )
        in
        stmts :=
          !stmts
          @ [
              Kir.If
                ( Kir.Tid dd <: ik !s,
                  [
                    Kir.Set (ov, Kir.Load_s (smv, other));
                    Kir.Set (oi, Kir.Load_s (smi, other));
                    Kir.If
                      ( better,
                        [
                          Kir.Store_s (smv, lin, Kir.Reg ov);
                          Kir.Store_s (smi, lin, Kir.Reg oi);
                        ],
                        [] );
                  ],
                  [] );
              Kir.Sync;
            ];
        s := !s / 2
      done;
      (* same write-after-read guard as [emit_tree]: the broadcast read
         crosses warps unless the reduction is warp-local along x, and
         the next reuse of the slots must wait for it *)
      let reuse_sync =
        if d.M.dim <> M.X || bs > ws then [ Kir.Sync ] else []
      in
      !stmts
      @ [
          Kir.Set (besti, Kir.Load_s (smi, lin -: (Kir.Tid dd *: ik stride)));
          Kir.Set (bestv, Kir.Load_s (smv, lin -: (Kir.Tid dd *: ik stride)));
        ]
      @ reuse_sync
      end
    end
    else []
  in
  let prologue =
    [ Kir.Set (bestv, huge); Kir.Set (besti, ik 0) ] @ dom @ tree
  in
  match sink with
  | `Var x ->
    ctx.vars <- (x, besti) :: ctx.vars;
    ctx.var_tys <- (x, Ty.I32) :: ctx.var_tys;
    prologue
  | `Out buf ->
    let own =
      if d.M.bsize > 1 then [ Kir.Tid (kdim d.M.dim) =: ik 0 ] else []
    in
    prologue
    @ wrap_pred
        (conj (ctx.valids @ own @ leader_conds ctx lvl))
        [ Kir.Store_g (buf, ik 0, Kir.Reg besti) ]

(* ----- shared-memory prefetch (Section V-B) -----

   In an imperfect nest, reads that advance with the outer (level-0) index
   but are invariant in the deeper levels are re-fetched by every deeper
   thread; when level 0 is not the coalescing dimension those fetches are
   also poorly laid out. When enabled, the block cooperatively stages the
   level-0 slice of each such read into shared memory using its fastest
   threads (one coalesced burst), synchronises, and serves all uses from
   shared memory. *)

let emit_prefetch ctx (n : Pat.nested) : Kir.stmt list =
  let top = n.Pat.pat in
  let d0 = ctx.mapping.(0) in
  let b0 = d0.M.bsize in
  let applicable =
    ctx.opts.smem_prefetch
    && ctx.levels.depth >= 2
    && d0.M.span = M.span1
    && d0.M.dim <> M.X
    && b0 >= 2
    && List.length ctx.levels.per_level.(0) = 1
  in
  if not applicable then []
  else begin
    let p0 = List.hd ctx.levels.per_level.(0) in
    let size0 = ctx.sizes.(0) in
    let accesses = Access.collect ~params:ctx.params ctx.prog top in
    let written_bufs =
      List.filter_map
        (fun (a : Access.access) -> if a.is_store then Some a.abuf else None)
        accesses
    in
    let candidate (a : Access.access) =
      (not a.alocal)
      && (not a.is_store)
      && (not (List.mem a.abuf written_bufs))
      && List.for_all
           (fun (pid, s) ->
             if pid = p0.Pat.pid then s = Access.Known 1
             else s = Access.Known 0)
           a.strides
      && List.mem_assoc p0.Pat.pid a.strides
    in
    let cands =
      List.sort_uniq compare
        (List.filter_map
           (fun (a : Access.access) ->
             if candidate a then Some (a.abuf, a.aidxs) else None)
           accesses)
    in
    let lt = Kir.Rb.fresh ctx.rb "pf_t" in
    Kir.Rb.set_type ctx.rb lt Ty.I32;
    let i0v = Kir.Rb.fresh ctx.rb "pf_i" in
    Kir.Rb.set_type ctx.rb i0v Ty.I32;
    let stmts =
      List.concat
        (List.mapi
           (fun i (buf, idxs) ->
             let pf = Printf.sprintf "pf%d" i in
             let elem = (Pat.find_buffer ctx.prog buf).Pat.elem in
             ctx.smem <- { Kir.sname = pf; selem = elem; selems = b0 } :: ctx.smem;
             let base = Kir.Bid (kdim d0.M.dim) *: ik b0 in
             (* temporarily bind the level-0 index to the staging position *)
             let saved_idx = ctx.idx in
             ctx.idx <- (p0.Pat.pid, Kir.Reg i0v) :: ctx.idx;
             let load = lower_exp ctx (Exp.Read (buf, idxs)) in
             ctx.idx <- saved_idx;
             let stage =
               [
                 Kir.Set (lt, lin_tid ctx);
                 Kir.If
                   ( Kir.Reg lt <: ik b0,
                     [
                       Kir.Set
                         (i0v, min_ (base +: Kir.Reg lt) (ik (size0 - 1)));
                       Kir.Store_s (pf, Kir.Reg lt, load);
                     ],
                     [] );
                 Kir.Sync;
               ]
             in
             ctx.prefetched <- (buf, idxs, pf) :: ctx.prefetched;
             stage)
           cands)
    in
    stmts
  end

(* ----- kernel assembly ----- *)

let fresh_ctx dev opts prog params mapping levels sizes temps notes ~serial
    kname =
  {
    dev;
    prog;
    params;
    mapping;
    levels;
    sizes;
    rb = Kir.Rb.create ();
    opts;
    temps;
    notes;
    kname;
    serial;
    smem = [];
    idx = [];
    valids = [];
    vars = [];
    var_tys = [];
    locals = [];
    prefetched = [];
  }

let make_kernel ctx body =
  {
    Kir.kname = ctx.kname;
    nregs = Kir.Rb.count ctx.rb;
    reg_names = Kir.Rb.names ctx.rb;
    reg_types = Kir.Rb.types ctx.rb;
    smem = List.rev ctx.smem;
    body;
  }

let launch_of ctx mapping sizes body : Kir.launch =
  {
    kernel = make_kernel ctx body;
    grid =
      ( M.grid_extent ~sizes mapping M.X,
        M.grid_extent ~sizes mapping M.Y,
        M.grid_extent ~sizes mapping M.Z );
    block = block_extents mapping;
    kparams = ctx.params;
  }

(* a tiny utility launch: [threads] threads doing [body] *)
let util_launch ctx ~name ~threads body : Kir.launch =
  ignore name;
  {
    kernel = make_kernel ctx body;
    grid = (cdiv threads 256, 1, 1);
    block = (min threads 256, 1, 1);
    kparams = ctx.params;
  }

let emit_top ctx (n : Pat.nested) : Kir.stmt list =
  let p = n.pat in
  match p.kind with
  | Pat.Foreach ->
    emit_domain ctx p ~per_index:(fun _ -> lower_stmts ctx 0 p.body)
  | Pat.Map { yield } ->
    let out = Option.get n.bind in
    emit_domain ctx p ~per_index:(fun _ ->
        scoped ctx (fun () ->
            let b = lower_open ctx 0 p.body in
            let y = lower_exp ctx yield in
            b
            @ wrap_pred (pred_of ctx 0)
                [
                  Kir.Store_g
                    (out, linearize_buffer ctx out [ idx_exp ctx p.pid ], y);
                ]))
  | Pat.Reduce { yield; r } ->
    emit_reduce ctx p r yield ~sink:(`Out (Option.get n.bind))
  | Pat.Arg_min { yield } ->
    emit_argmin ctx p yield ~sink:(`Out (Option.get n.bind))
  | Pat.Filter { pred; yield } ->
    let out = Option.get n.bind in
    let count = out ^ "_count" in
    emit_domain ctx p ~per_index:(fun _ ->
        scoped ctx @@ fun () ->
        let b = lower_open ctx 0 p.body in
        let pr = lower_exp ctx pred in
        let y = lower_exp ctx yield in
        let pos = Kir.Rb.fresh ctx.rb "pos" in
        Kir.Rb.set_type ctx.rb pos Ty.I32;
        let base =
          match pred_of ctx 0 with None -> pr | Some g -> and_ g pr
        in
        b
        @ [
            Kir.If
              ( base,
                [
                  Kir.Atomic_add_ret
                    { reg = pos; buf = count; idx = ik 0; value = ik 1 };
                  Kir.Store_g
                    (out, linearize_buffer ctx out [ Kir.Reg pos ], y);
                ],
                [] );
          ])
  | Pat.Group_by _ ->
    (* expanded into three kernels by [lower] itself *)
    assert false

(* ----- split-reduce orchestration ----- *)

type split_plan =
  | No_split
  | Split_top of int  (* top-level reduce, k sections *)
  | Split_inner of {
      k : int;
      pre : Pat.stmt list;
      reds : (string * Pat.pattern) list;  (* bind name, reduce pattern *)
      post : Pat.stmt list;
    }

let plan_split (n : Pat.nested) (mapping : M.t) levels =
  let split_lvl = ref None in
  Array.iteri
    (fun l (d : M.decision) ->
      match d.M.span with
      | M.Split k -> split_lvl := Some (l, k)
      | _ -> ())
    mapping;
  match !split_lvl with
  | None -> Ok No_split
  | Some (0, k) -> (
    match n.pat.kind with
    | Pat.Reduce _ -> Ok (Split_top k)
    | _ -> Error "split at level 0 of a non-reduce pattern")
  | Some (1, k) -> (
    match n.pat.kind with
    | Pat.Map _ | Pat.Foreach -> (
      (* partition the top body into pre / contiguous reduces / post *)
      let rec split_body pre stmts =
        match stmts with
        | Pat.Nested { bind = Some x; pat } :: rest
          when (match pat.Pat.kind with
                | Pat.Reduce _ -> true
                | _ -> false)
               && Levels.level_of levels pat.Pat.pid = 1 ->
          let rec reds acc = function
            | Pat.Nested { bind = Some x'; pat = pat' } :: rest'
              when (match pat'.Pat.kind with
                    | Pat.Reduce _ -> true
                    | _ -> false)
                   && Levels.level_of levels pat'.Pat.pid = 1 ->
              reds ((x', pat') :: acc) rest'
            | rest' -> (List.rev acc, rest')
          in
          let more, post = reds [ (x, pat) ] rest in
          Some (List.rev pre, more, post)
        | s :: rest -> split_body (s :: pre) rest
        | [] -> None
      in
      match split_body [] n.pat.Pat.body with
      | None -> Error "no level-1 reduce found for split"
      | Some (pre, reds, post) ->
        let rec clean stmts =
          List.for_all
            (function
              | Pat.Nested _ -> false
              | Pat.Let _ | Pat.Assign _ | Pat.Store _ | Pat.Atomic_add _ ->
                true
              | Pat.If (_, a, b) -> clean a && clean b
              | Pat.For (_, _, _, b) | Pat.While (_, b) -> clean b)
            stmts
        in
        let no_effects stmts =
          let rec go = function
            | Pat.Store _ | Pat.Atomic_add _ -> false
            | Pat.Let _ | Pat.Assign _ -> true
            | Pat.Nested _ -> false
            | Pat.If (_, a, b) -> List.for_all go a && List.for_all go b
            | Pat.For (_, _, _, b) | Pat.While (_, b) -> List.for_all go b
          in
          List.for_all go stmts
        in
        if clean pre && clean post && no_effects pre then
          Ok (Split_inner { k; pre; reds; post })
        else Error "split structure too complex (nested work in pre/post)")
    | _ -> Error "split at level 1 under a non-map pattern")
  | Some (l, _) -> Error (Printf.sprintf "split at unsupported level %d" l)

let rec lower dev ?(opts = default_options) ~params (prog : Pat.prog)
    (n : Pat.nested) (mapping : M.t) : lowered =
  let params = Host.params_of prog params in
  let levels = Levels.of_top n.pat in
  if Array.length mapping <> levels.depth then
    invalid_arg
      (Printf.sprintf "lower: mapping has %d levels, nest has %d"
         (Array.length mapping) levels.depth);
  let sizes =
    Array.init levels.depth (fun l -> Levels.level_size params levels l)
  in
  let temps = ref [] in
  let notes = ref [] in
  let kname = prog.pname ^ "_" ^ n.pat.label in
  let mk ?(serial = false) name =
    fresh_ctx dev opts prog params mapping levels sizes temps notes ~serial
      name
  in
  let demote l why =
    let m = Array.copy mapping in
    m.(l) <- { (m.(l)) with M.span = M.Span_all };
    let r = lower dev ~opts ~params prog n m in
    { r with notes = (why ^ "; demoted Split to Span(all)") :: r.notes }
  in
  match n.pat.kind with
  | Pat.Group_by { key; value; num_keys } ->
    (* three kernels: zero+histogram, offsets scan, scatter *)
    let out = Option.get n.bind in
    let counts = out ^ "_counts" and offsets = out ^ "_offsets" in
    let nk = Ty.extent_value params num_keys in
    let p = n.pat in
    (* zero the counts *)
    let zctx = mk (kname ^ "_zero") in
    let zi = Kir.Rb.fresh zctx.rb "i" in
    let zero =
      util_launch zctx ~name:"zero" ~threads:nk
        [
          Kir.Set
            (zi, (Kir.Bid Kir.X *: Kir.Bdim Kir.X) +: Kir.Tid Kir.X);
          Kir.If
            (Kir.Reg zi <: ik nk,
             [ Kir.Store_g (counts, Kir.Reg zi, ik 0);
               Kir.Store_g (kname ^ "_cursor", Kir.Reg zi, ik 0) ],
             []);
        ]
    in
    temps := { tname = kname ^ "_cursor"; telem = Ty.I32; telems = nk }
             :: !temps;
    (* histogram *)
    let hctx = mk (kname ^ "_hist") in
    let hist_body =
      emit_domain hctx p ~per_index:(fun _ ->
          scoped hctx (fun () ->
              let b = lower_open hctx 0 p.body in
              let k' = lower_exp hctx key in
              b
              @ wrap_pred (pred_of hctx 0)
                  [ Kir.Atomic_add_g (counts, k', ik 1) ]))
    in
    let hist = launch_of hctx mapping sizes hist_body in
    (* offsets: single-thread exclusive scan (num_keys is small) *)
    let sctx = mk (kname ^ "_scan") in
    let acc = Kir.Rb.fresh sctx.rb "acc" in
    let j = Kir.Rb.fresh sctx.rb "j" in
    let c = Kir.Rb.fresh sctx.rb "c" in
    let scan =
      {
        Kir.kernel =
          make_kernel sctx
            [
              Kir.If
                ( and_ (Kir.Tid Kir.X =: ik 0) (Kir.Bid Kir.X =: ik 0),
                  [
                    Kir.Set (acc, ik 0);
                    Kir.For
                      {
                        reg = j;
                        lo = ik 0;
                        hi = ik nk;
                        step = ik 1;
                        body =
                          [
                            Kir.Set (c, Kir.Load_g (counts, Kir.Reg j));
                            Kir.Store_g (offsets, Kir.Reg j, Kir.Reg acc);
                            Kir.Set (acc, Kir.Reg acc +: Kir.Reg c);
                          ];
                      };
                  ],
                  [] );
            ];
        grid = (1, 1, 1);
        block = (32, 1, 1);
        kparams = params;
      }
    in
    (* scatter *)
    let cctx = mk (kname ^ "_scatter") in
    let scat_body =
      emit_domain cctx p ~per_index:(fun _ ->
          scoped cctx @@ fun () ->
          let b = lower_open cctx 0 p.body in
          let k' = lower_exp cctx key in
          let v' = lower_exp cctx value in
          let kk = Kir.Rb.fresh cctx.rb "kk" in
          let pos = Kir.Rb.fresh cctx.rb "pos" in
          b
          @ wrap_pred (pred_of cctx 0)
              [
                Kir.Set (kk, k');
                Kir.Atomic_add_ret
                  { reg = pos; buf = kname ^ "_cursor"; idx = Kir.Reg kk;
                    value = ik 1 };
                Kir.Store_g
                  ( out,
                    Kir.Load_g (offsets, Kir.Reg kk) +: Kir.Reg pos,
                    v' );
              ])
    in
    let scatter = launch_of cctx mapping sizes scat_body in
    {
      launches = [ zero; hist; scan; scatter ];
      temps = !temps;
      notes = !notes;
    }
  | Pat.Filter { pred; yield } when opts.ordered_filter ->
    (* ordered compaction via flags + exclusive scan + scatter — the
       multi-kernel formulation the paper attributes to pattern-aware
       compilers (Section VII) *)
    let out = Option.get n.bind in
    let count = out ^ "_count" in
    let n0 = sizes.(0) in
    let flags = kname ^ "_flags"
    and vals = kname ^ "_vals"
    and pos = kname ^ "_pos" in
    let p = n.pat in
    let fctx = mk (kname ^ "_flags") in
    let val_ty = ref Ty.F64 in
    let flag_body =
      emit_domain fctx p ~per_index:(fun _ ->
          scoped fctx @@ fun () ->
          let b = lower_stmts fctx 0 p.Pat.body in
          let pr = lower_exp fctx pred in
          val_ty := infer fctx yield;
          let y = lower_exp fctx yield in
          let i0 = idx_exp fctx p.Pat.pid in
          let base =
            match pred_of fctx 0 with None -> pr | Some g -> and_ g pr
          in
          b
          @ [
              Kir.If
                ( base,
                  [
                    Kir.Store_g (flags, i0, ik 1);
                    Kir.Store_g (vals, i0, y);
                  ],
                  [] );
            ])
    in
    let flags_launch = launch_of fctx mapping sizes flag_body in
    temps :=
      { tname = flags; telem = Ty.I32; telems = n0 }
      :: { tname = vals; telem = !val_ty; telems = n0 }
      :: { tname = pos; telem = Ty.I32; telems = n0 }
      :: !temps;
    let scan_launches, scan_temps =
      Scan.exclusive ~name_prefix:(kname ^ "_scan") ~src:flags ~dst:pos
        ~total:count ~n:n0 ~kparams:params
    in
    temps :=
      List.map (fun (tn, te, ts) -> { tname = tn; telem = te; telems = ts })
        scan_temps
      @ !temps;
    let sctx = mk (kname ^ "_scatter") in
    let g = Kir.Rb.fresh sctx.rb "g" in
    Kir.Rb.set_type sctx.rb g Ty.I32;
    let gc = Kir.Rb.fresh sctx.rb "gc" in
    Kir.Rb.set_type sctx.rb gc Ty.I32;
    let scatter =
      {
        Kir.kernel =
          make_kernel sctx
            [
              Kir.Set
                (g, (Kir.Bid Kir.X *: Kir.Bdim Kir.X) +: Kir.Tid Kir.X);
              Kir.Set (gc, min_ (Kir.Reg g) (ik (n0 - 1)));
              Kir.If
                ( and_
                    (Kir.Reg g <: ik n0)
                    (Kir.Load_g (flags, Kir.Reg gc) =: ik 1),
                  [
                    Kir.Store_g
                      ( out,
                        Kir.Load_g (pos, Kir.Reg gc),
                        Kir.Load_g (vals, Kir.Reg gc) );
                  ],
                  [] );
            ];
        grid = (cdiv n0 256, 1, 1);
        block = (256, 1, 1);
        kparams = params;
      }
    in
    {
      launches = (flags_launch :: scan_launches) @ [ scatter ];
      temps = !temps;
      notes = !notes;
    }
  | Pat.Filter _ ->
    let out = Option.get n.bind in
    let count = out ^ "_count" in
    let zctx = mk (kname ^ "_zero") in
    let zero =
      {
        Kir.kernel =
          make_kernel zctx
            [
              Kir.If
                ( and_ (Kir.Tid Kir.X =: ik 0) (Kir.Bid Kir.X =: ik 0),
                  [ Kir.Store_g (count, ik 0, ik 0) ],
                  [] );
            ];
        grid = (1, 1, 1);
        block = (32, 1, 1);
        kparams = params;
      }
    in
    let ctx = mk kname in
    let body = emit_top ctx n in
    let main = launch_of ctx mapping sizes body in
    { launches = [ zero; main ]; temps = !temps; notes = !notes }
  | Pat.Map _ | Pat.Foreach | Pat.Reduce _ | Pat.Arg_min _ -> (
    match plan_split n mapping levels with
    | Error why -> (
      (* find the split level to demote *)
      let l = ref (-1) in
      Array.iteri
        (fun i (d : M.decision) ->
          match d.M.span with M.Split _ -> l := i | _ -> ())
        mapping;
      match !l with
      | -1 -> failwith ("lower: " ^ why)
      | l -> demote l why)
    | Ok No_split ->
      let ctx = mk kname in
      let prologue = emit_prefetch ctx n in
      let body = emit_top ctx n in
      let main = launch_of ctx mapping sizes (prologue @ body) in
      { launches = [ main ]; temps = !temps; notes = !notes }
    | Ok (Split_top k) ->
      let p = n.pat in
      let r, yield =
        match p.kind with
        | Pat.Reduce { r; yield } -> (r, yield)
        | _ -> assert false
      in
      let out = Option.get n.bind in
      let pbuf = kname ^ "_part" in
      let ctx = mk kname in
      let ty = infer ctx r.init in
      temps := { tname = pbuf; telem = ty; telems = k } :: !temps;
      let body = emit_reduce ctx p r yield ~sink:(`Partial (pbuf, ik 0, k)) in
      let main = launch_of ctx mapping sizes body in
      (* combiner: one thread folds the k partials *)
      let cctx = mk ~serial:true (kname ^ "_comb") in
      let acc = Kir.Rb.fresh cctx.rb "acc" in
      Kir.Rb.set_type cctx.rb acc ty;
      let s = Kir.Rb.fresh cctx.rb "s" in
      let fold =
        combine_into cctx r acc ty (Kir.Load_g (pbuf, Kir.Reg s))
      in
      let comb_body =
        [
          Kir.If
            ( and_ (Kir.Tid Kir.X =: ik 0) (Kir.Bid Kir.X =: ik 0),
              [
                Kir.Set (acc, lower_exp cctx r.init);
                Kir.For
                  { reg = s; lo = ik 0; hi = ik k; step = ik 1; body = fold };
                Kir.Store_g (out, ik 0, Kir.Reg acc);
              ],
              [] );
        ]
      in
      let comb =
        {
          Kir.kernel = make_kernel cctx comb_body;
          grid = (1, 1, 1);
          block = (32, 1, 1);
          kparams = params;
        }
      in
      { launches = [ main; comb ]; temps = !temps; notes = !notes }
    | Ok (Split_inner { k; pre; reds; post }) ->
      let p = n.pat in
      let size0 = sizes.(0) in
      (* main kernel: outer domain, pre, partial reduces *)
      let ctx = mk kname in
      let red_info =
        List.map
          (fun (x, (rp : Pat.pattern)) ->
            let r, yield =
              match rp.Pat.kind with
              | Pat.Reduce { r; yield } -> (r, yield)
              | _ -> assert false
            in
            let ty = infer ctx r.init in
            let pbuf = kname ^ "_part_" ^ x in
            temps :=
              { tname = pbuf; telem = ty; telems = size0 * k } :: !temps;
            (x, rp, r, yield, ty, pbuf))
          reds
      in
      let body =
        emit_domain ctx p ~per_index:(fun _ ->
            scoped ctx (fun () ->
                let b = lower_open ctx 0 pre in
                b
                @ List.concat_map
                    (fun (_, rp, r, yield, _, pbuf) ->
                      emit_reduce ctx rp r yield
                        ~sink:(`Partial (pbuf, idx_exp ctx p.Pat.pid, k)))
                    red_info))
      in
      let main = launch_of ctx mapping sizes body in
      (* combiner: flat over the outer domain *)
      let cctx = mk ~serial:true (kname ^ "_comb") in
      let flat = Kir.Rb.fresh cctx.rb "i" in
      cctx.idx <- [ (p.Pat.pid, Kir.Reg flat) ];
      let inner =
        let pre' = lower_open cctx 0 pre in
        let folds =
          List.concat_map
            (fun (x, _, r, _, ty, pbuf) ->
              let acc = Kir.Rb.fresh cctx.rb ("acc_" ^ x) in
              Kir.Rb.set_type cctx.rb acc ty;
              let s = Kir.Rb.fresh cctx.rb ("s_" ^ x) in
              let fold =
                combine_into cctx r acc ty
                  (Kir.Load_g
                     (pbuf, (Kir.Reg flat *: ik k) +: Kir.Reg s))
              in
              cctx.vars <- (x, acc) :: cctx.vars;
              cctx.var_tys <- (x, ty) :: cctx.var_tys;
              [
                Kir.Set (acc, lower_exp cctx r.init);
                Kir.For
                  { reg = s; lo = ik 0; hi = ik k; step = ik 1; body = fold };
              ])
            red_info
        in
        let post' = lower_open cctx 0 post in
        let finish =
          match p.Pat.kind, n.bind with
          | Pat.Map { yield }, Some out ->
            [
              Kir.Store_g
                ( out,
                  linearize_buffer cctx out [ Kir.Reg flat ],
                  lower_exp cctx yield );
            ]
          | Pat.Foreach, _ -> []
          | _ -> assert false
        in
        pre' @ folds @ post' @ finish
      in
      let comb_body =
        [
          Kir.Set
            (flat, (Kir.Bid Kir.X *: Kir.Bdim Kir.X) +: Kir.Tid Kir.X);
          Kir.If (Kir.Reg flat <: ik size0, inner, []);
        ]
      in
      let comb =
        {
          Kir.kernel = make_kernel cctx comb_body;
          grid = (cdiv size0 256, 1, 1);
          block = (256, 1, 1);
          kparams = params;
        }
      in
      { launches = [ main; comb ]; temps = !temps; notes = !notes })

(* ----- the shape key: one walk writes each constructor's tag and its
   structure, and wipes what geometry search varies ----- *)

let shape_key (l : lowered) =
  let b = Enc.create () in
  let int = Enc.int b and str = Enc.string b in
  let scalar s = int (match s with Ty.I32 -> 0 | Ty.F64 -> 1 | Ty.Bool -> 2)
  and dim d = int (match d with Kir.X -> 0 | Kir.Y -> 1 | Kir.Z -> 2)
  and list f xs = int (List.length xs); List.iter f xs in
  let rec exp = function
    | Kir.Int _ -> int 0
    | Kir.Float _ -> int 1
    | Kir.Bool v -> int (if v then 3 else 2)
    | Kir.Reg r -> int 4; int r
    | Kir.Tid d -> int 5; dim d
    | Kir.Bid d -> int 6; dim d
    | Kir.Bdim d -> int 7; dim d
    | Kir.Gdim d -> int 8; dim d
    | Kir.Param p -> int 9; str p
    | Kir.Bin (op, x, y) -> int 10; str (Exp.binop_name op); exp x; exp y
    | Kir.Un (op, x) -> int 11; str (Exp.unop_name op); exp x
    | Kir.Cmp (op, x, y) -> int 12; str (Exp.cmpop_name op); exp x; exp y
    | Kir.Select (c, x, y) -> int 13; exp c; exp x; exp y
    | Kir.Load_g (n, i) -> int 14; str n; exp i
    | Kir.Load_s (n, i) -> int 15; str n; exp i
    | Kir.Shfl_down (v, d) -> int 16; exp v; exp d
    | Kir.Shfl_idx (v, d) -> int 17; exp v; exp d
  and stmt = function
    | Kir.Set (r, e) -> int 20; int r; exp e
    | Kir.Store_g (n, i, v) -> int 21; str n; exp i; exp v
    | Kir.Store_s (n, i, v) -> int 22; str n; exp i; exp v
    | Kir.Atomic_add_g (n, i, v) -> int 23; str n; exp i; exp v
    | Kir.Atomic_add_ret { reg; buf; idx; value } ->
      int 24; int reg; str buf; exp idx; exp value
    | Kir.If (c, t, e) -> int 25; exp c; list stmt t; list stmt e
    | Kir.For { reg; lo; hi; step; body } ->
      int 26; int reg; exp lo; exp hi; exp step; list stmt body
    | Kir.While (c, body) -> int 27; exp c; list stmt body
    | Kir.Sync -> int 28
    | Kir.Malloc_event -> int 29
  in
  list
    (fun (ln : Kir.launch) ->
      str ln.kernel.kname;
      list stmt ln.kernel.body;
      list (fun (d : Kir.smem_decl) -> str d.sname; scalar d.selem) ln.kernel.smem;
      list (fun (p, _) -> str p) ln.kparams)
    l.launches;
  list (fun t -> str t.tname; scalar t.telem) l.temps;
  Enc.digest b
