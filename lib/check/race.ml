(* Static race / barrier checker over Kir (shared memory only).

   The kernel body is split into *phases* at block-wide barriers: two
   accesses to the same shared array can only conflict when no [Sync]
   orders them, i.e. when they fall into the same phase. Within a phase
   the checker looks for a pair of *distinct* threads and an assignment
   of loop counters under which a write and another access land on the
   same slot; if the two threads provably share a warp the pair is
   exempt (warps execute in lockstep in the SIMT engines, which is the
   warp-synchronous assumption the lowering's [warp_sync] option leans
   on), otherwise it is a race.

   Indices and guards are evaluated symbolically: an index is an affine
   form over this thread's tid components, loop counters (kept as
   symbolic terms with their bounds — NOT flattened to intervals, which
   is what lets `lin + k*tpb` prefetch loops prove injectivity) and
   block ids; anything else (values loaded from memory, float
   arithmetic, shuffle results) widens to Top, which conservatively
   aliases the whole array. Feasibility of a candidate conflict is
   decided by branch-and-bound over the variables' integer boxes with
   interval pruning; exhausting the node budget reports a *possible*
   race (sound, not precise).

   Loop bodies containing a barrier are traversed twice with fresh
   counter symbols, so the wrap-around phase (after the barrier in one
   iteration, before it in the next) is paired correctly.

   Independently, the walk tracks *tid taint* of branch conditions and
   loop bounds: a [Sync] — or a warp shuffle — reached under a
   condition that may differ across the block's threads is reported as
   barrier (resp. shuffle) divergence, mirroring the traps the
   execution engines raise dynamically. *)

module Kir = Ppat_kernel.Kir
module Exp = Ppat_ir.Exp
module Ty = Ppat_ir.Ty

(* ----- symbolic values ----- *)

(* a variable: a tid component of one of the two symbolic threads, a
   loop counter instance, or a (shared) block id *)
type vinfo = {
  vlo : int;
  vhi : int;  (* inclusive *)
  vshared : bool;  (* common to both threads of a conflict pair *)
  vtaint : bool;  (* may differ across the block's threads *)
}

type aval =
  | Top
  | Aff of int * (int * int) list
      (* constant + [coef * var] terms, sorted by var, no zero coefs *)

let aconst c = Aff (c, [])

let rec merge_terms a b =
  match a, b with
  | [], t | t, [] -> t
  | (c1, v1) :: r1, (c2, v2) :: r2 ->
    if v1 = v2 then
      let c = c1 + c2 in
      if c = 0 then merge_terms r1 r2 else (c, v1) :: merge_terms r1 r2
    else if v1 < v2 then (c1, v1) :: merge_terms r1 ((c2, v2) :: r2)
    else (c2, v2) :: merge_terms ((c1, v1) :: r1) r2

let a_add a b =
  match a, b with
  | Top, _ | _, Top -> Top
  | Aff (c1, t1), Aff (c2, t2) -> Aff (c1 + c2, merge_terms t1 t2)

let a_scale k = function
  | _ when k = 0 -> aconst 0
  | Top -> Top
  | Aff (c, ts) -> Aff (k * c, List.map (fun (q, v) -> (k * q, v)) ts)

let a_sub a b = a_add a (a_scale (-1) b)

let a_mul a b =
  match a, b with
  | Aff (k, []), x | x, Aff (k, []) -> a_scale k x
  | _ -> Top

let a_vars acc = function
  | Top -> acc
  | Aff (_, ts) -> List.fold_left (fun acc (_, v) -> v :: acc) acc ts

(* symbolic booleans (guards) *)
type bval =
  | Btop
  | Bbool of bool
  | Bcmp of Exp.cmpop * aval * aval
  | Band of bval * bval
  | Bor of bval * bval
  | Bnot of bval

let rec b_vars acc = function
  | Btop | Bbool _ -> acc
  | Bcmp (_, a, b) -> a_vars (a_vars acc a) b
  | Band (a, b) | Bor (a, b) -> b_vars (b_vars acc a) b
  | Bnot a -> b_vars acc a

(* ----- reports ----- *)

type race = {
  r_array : string;
  r_phase : int;
  r_write : string;  (* site description of the writing access *)
  r_other : string;
  r_other_writes : bool;
  r_sure : bool;
      (* false: flagged conservatively (widened index or exhausted
         search budget), a concrete witness was not pinned down *)
}

type report = {
  races : race list;
  divergence : string list;
      (* barrier / warp-primitive divergence findings *)
}

let clean r = r.races = [] && r.divergence = []

let pp_report ppf r =
  if clean r then Format.fprintf ppf "no races, no barrier divergence"
  else begin
    List.iter
      (fun x ->
        Format.fprintf ppf "RACE%s on %s (phase %d): %s vs %s@."
          (if x.r_sure then "" else "?")
          x.r_array x.r_phase x.r_write x.r_other)
      r.races;
    List.iter (fun d -> Format.fprintf ppf "DIVERGENCE: %s@." d) r.divergence
  end

(* ----- the symbolic walk ----- *)

type access = {
  a_arr : string;
  a_idx : aval;
  a_write : bool;
  a_guards : bval list;
  a_site : string;
}

type rval = Ri of aval | Rb of bval

type env = {
  k : Kir.kernel;
  blk : int * int * int;
  params : (string * int) list;
  mutable vars : vinfo array;  (* grows; ids are indices *)
  mutable nvars : int;
  tids : int array;  (* var ids of this thread's tid x/y/z *)
  mutable regs : (rval * bool) array;  (* symbolic value, taint *)
  mutable guards : (bval * bool) list;  (* If conditions, with taint *)
  mutable loop_taint : bool list;  (* divergence of enclosing loops *)
  mutable phases : access list list;  (* committed phases, reversed *)
  mutable cur : access list;  (* current phase, reversed *)
  mutable diverg : string list;
}

let fresh_var env vi =
  let id = env.nvars in
  if id >= Array.length env.vars then begin
    let bigger = Array.make (max 8 (2 * Array.length env.vars)) vi in
    Array.blit env.vars 0 bigger 0 (Array.length env.vars);
    env.vars <- bigger
  end;
  env.vars.(id) <- vi;
  env.nvars <- id + 1;
  id

let top = (Ri Top, true)
let aval_of = function Ri a -> a | Rb _ -> Top
let bval_of = function Rb b -> b | Ri _ -> Btop

let divergent env =
  List.exists snd env.guards || List.exists Fun.id env.loop_taint

(* iteration-count cap when loop bounds are not statically known: the
   counter still carries its stride, only its range is loose *)
let unknown_iters = 1 lsl 20

let path_str path = String.concat "/" (List.rev path)

let is_bool_reg env r =
  r < Array.length env.k.Kir.reg_types
  && env.k.Kir.reg_types.(r) = Ty.Bool

(* symbolic evaluation; records shared-memory *reads* as a side effect
   (loads can hide in any sub-expression) and flags warp primitives
   evaluated under divergent control flow *)
let rec ev env path (e : Kir.exp) : rval * bool =
  match e with
  | Kir.Int n -> (Ri (aconst n), false)
  | Kir.Float _ -> (Ri Top, false)
  | Kir.Bool b -> (Rb (Bbool b), false)
  | Kir.Reg r ->
    if r < Array.length env.regs then env.regs.(r) else top
  | Kir.Tid d ->
    let i = match d with Kir.X -> 0 | Kir.Y -> 1 | Kir.Z -> 2 in
    (Ri (Aff (0, [ (1, env.tids.(i)) ])), true)
  | Kir.Bid _ ->
    (* both threads of a conflict pair live in the same block, so the
       block id is an opaque shared unknown; its exact bounds never
       matter because it cancels in index differences *)
    (Ri Top, false)
  | Kir.Bdim d ->
    let bx, by, bz = env.blk in
    (Ri (aconst (match d with Kir.X -> bx | Kir.Y -> by | Kir.Z -> bz)), false)
  | Kir.Gdim _ -> (Ri Top, false)
  | Kir.Param p ->
    (match List.assoc_opt p env.params with
     | Some v -> (Ri (aconst v), false)
     | None -> (Ri Top, false))
  | Kir.Bin (op, a, b) ->
    let va, ta = ev env path a in
    let vb, tb = ev env path b in
    let t = ta || tb in
    (match op with
     | Exp.Add -> (Ri (a_add (aval_of va) (aval_of vb)), t)
     | Exp.Sub -> (Ri (a_sub (aval_of va) (aval_of vb)), t)
     | Exp.Mul -> (Ri (a_mul (aval_of va) (aval_of vb)), t)
     | Exp.Div | Exp.Mod | Exp.Min | Exp.Max ->
       (match aval_of va, aval_of vb with
        | Aff (x, []), Aff (y, []) when (op <> Exp.Div && op <> Exp.Mod) || y <> 0 ->
          let v =
            match op with
            | Exp.Div -> x / y
            | Exp.Mod -> x mod y
            | Exp.Min -> min x y
            | _ -> max x y
          in
          (Ri (aconst v), t)
        | _ -> (Ri Top, t))
     | Exp.And -> (Rb (Band (bval_of va, bval_of vb)), t)
     | Exp.Or -> (Rb (Bor (bval_of va, bval_of vb)), t))
  | Kir.Un (op, a) ->
    let va, ta = ev env path a in
    (match op with
     | Exp.Neg -> (Ri (a_scale (-1) (aval_of va)), ta)
     | Exp.Not -> (Rb (Bnot (bval_of va)), ta)
     | Exp.I2f | Exp.F2i | Exp.Sqrt | Exp.Exp_ | Exp.Log_ | Exp.Abs ->
       (Ri Top, ta))
  | Kir.Cmp (op, a, b) ->
    let va, ta = ev env path a in
    let vb, tb = ev env path b in
    (Rb (Bcmp (op, aval_of va, aval_of vb)), ta || tb)
  | Kir.Select (c, a, b) ->
    let _, tc = ev env path c in
    let _, ta = ev env path a in
    let _, tb = ev env path b in
    (Ri Top, tc || ta || tb)
  | Kir.Load_g (_, i) ->
    ignore (ev env path i);
    (Ri Top, true)
  | Kir.Load_s (s, i) ->
    let vi, _ = ev env path i in
    env.cur <-
      {
        a_arr = s;
        a_idx = aval_of vi;
        a_write = false;
        a_guards = List.map fst env.guards;
        a_site = Printf.sprintf "load %s @ %s" s (path_str path);
      }
      :: env.cur;
    (Ri Top, true)
  | Kir.Shfl_down (v, l) | Kir.Shfl_idx (v, l) ->
    if divergent env then
      env.diverg <-
        Printf.sprintf "warp shuffle under divergent control flow @ %s"
          (path_str path)
        :: env.diverg;
    ignore (ev env path v);
    ignore (ev env path l);
    (Ri Top, true)

(* registers (re)assigned anywhere in [body], for the widening join at
   loop heads: a loop-carried value is Top at the next iteration's
   entry unless the body re-establishes it before use *)
let rec assigned acc (s : Kir.stmt) =
  match s with
  | Kir.Set (r, _) -> r :: acc
  | Kir.Atomic_add_ret { reg; _ } -> reg :: acc
  | Kir.If (_, t, e) ->
    List.fold_left assigned (List.fold_left assigned acc t) e
  | Kir.For { reg; body; _ } -> List.fold_left assigned (reg :: acc) body
  | Kir.While (_, body) -> List.fold_left assigned acc body
  | Kir.Store_g _ | Kir.Store_s _ | Kir.Atomic_add_g _ | Kir.Sync
  | Kir.Malloc_event ->
    acc

let widen_assigned env body =
  List.iter
    (fun r -> if r < Array.length env.regs then env.regs.(r) <- top)
    (List.fold_left assigned [] body)

let rec has_sync (s : Kir.stmt) =
  match s with
  | Kir.Sync -> true
  | Kir.If (_, t, e) -> List.exists has_sync t || List.exists has_sync e
  | Kir.For { body; _ } | Kir.While (_, body) -> List.exists has_sync body
  | _ -> false

let reg_name env r =
  let names = env.k.Kir.reg_names in
  if r < Array.length names then names.(r) else Printf.sprintf "r%d" r

let rec walk env path (s : Kir.stmt) =
  match s with
  | Kir.Set (r, e) ->
    let v = ev env path e in
    if r < Array.length env.regs then env.regs.(r) <- v
  | Kir.Store_g (_, i, v) ->
    ignore (ev env path i);
    ignore (ev env path v)
  | Kir.Store_s (sn, i, v) ->
    let vi, _ = ev env path i in
    ignore (ev env path v);
    env.cur <-
      {
        a_arr = sn;
        a_idx = aval_of vi;
        a_write = true;
        a_guards = List.map fst env.guards;
        a_site = Printf.sprintf "store %s @ %s" sn (path_str path);
      }
      :: env.cur
  | Kir.Atomic_add_g (_, i, v) ->
    ignore (ev env path i);
    ignore (ev env path v)
  | Kir.Atomic_add_ret { reg; idx; value; _ } ->
    ignore (ev env path idx);
    ignore (ev env path value);
    if reg < Array.length env.regs then env.regs.(reg) <- top
  | Kir.If (c, t, e) ->
    let bc, tc = ev env path c in
    let saved = Array.copy env.regs in
    env.guards <- (bval_of bc, tc) :: env.guards;
    List.iter (walk env ("if" :: path)) t;
    let after_t = env.regs in
    env.regs <- saved;
    env.guards <- (Bnot (bval_of bc), tc) :: List.tl env.guards;
    List.iter (walk env ("else" :: path)) e;
    env.guards <- List.tl env.guards;
    (* join: a register only keeps its value if both arms agree *)
    Array.iteri
      (fun i ve ->
        let vt = after_t.(i) in
        env.regs.(i) <- (if vt = ve then ve else top))
      env.regs
  | Kir.For { reg; lo; hi; step; body } ->
    let vlo, tlo = ev env path lo in
    let vhi, thi = ev env path hi in
    let vstep, tstep = ev env path step in
    let bounds_taint = tlo || thi || tstep in
    let seg = Printf.sprintf "for(%s)" (reg_name env reg) in
    let model_counter () =
      (* reg = lo + k*step with k an iteration counter: exact when the
         stride is a non-zero constant, Top otherwise *)
      match aval_of vstep with
      | Aff (st, []) when st <> 0 ->
        let iters =
          match aval_of vlo, aval_of vhi with
          | Aff (l, []), Aff (h, []) ->
            if st > 0 then max 0 ((h - l + st - 1) / st)
            else if l < h then unknown_iters
            else 0
          | _ -> unknown_iters
        in
        if iters = 0 then None
        else begin
          let kv =
            fresh_var env
              {
                vlo = 0;
                vhi = iters - 1;
                vshared = false;
                vtaint = bounds_taint;
              }
          in
          Some (a_add (aval_of vlo) (Aff (0, [ (st, kv) ])), bounds_taint)
        end
      | _ -> Some (Top, true)
    in
    let run_copy () =
      match model_counter () with
      | None -> ()  (* statically empty loop *)
      | Some (rv, rt) ->
        if reg < Array.length env.regs then env.regs.(reg) <- (Ri rv, rt);
        widen_assigned env body;
        if reg < Array.length env.regs then env.regs.(reg) <- (Ri rv, rt);
        List.iter (walk env (seg :: path)) body
    in
    env.loop_taint <- bounds_taint :: env.loop_taint;
    run_copy ();
    if List.exists has_sync body then
      (* wrap-around phases: post-barrier of one iteration shares a
         phase with pre-barrier of the next — fresh counter symbols *)
      run_copy ();
    env.loop_taint <- List.tl env.loop_taint;
    widen_assigned env body;
    if reg < Array.length env.regs then env.regs.(reg) <- top
  | Kir.While (c, body) ->
    let _, tc0 = ev env path c in
    env.loop_taint <- true :: env.loop_taint;
    (* trip count is data-dependent: taint conservatively; values
       carried around the loop widen to Top *)
    widen_assigned env body;
    List.iter (walk env ("while" :: path)) body;
    if List.exists has_sync body then begin
      ignore (ev env path c);
      widen_assigned env body;
      List.iter (walk env ("while" :: path)) body
    end;
    env.loop_taint <- List.tl env.loop_taint;
    widen_assigned env body;
    ignore tc0
  | Kir.Sync ->
    if divergent env then
      env.diverg <-
        Printf.sprintf "barrier under divergent control flow @ %s"
          (path_str path)
        :: env.diverg;
    if env.guards = [] then begin
      (* a guarded barrier (uniform or not) is not trusted to split
         phases: merging its neighbours over-approximates, which errs
         on the side of reporting *)
      env.phases <- env.cur :: env.phases;
      env.cur <- []
    end
  | Kir.Malloc_event -> ()

(* ----- conflict feasibility: branch and bound ----- *)

type tri = T | F | M

let a_range lo hi = function
  | Top -> None
  | Aff (c, ts) ->
    Some
      (List.fold_left
         (fun (mn, mx) (q, v) ->
           let a = q * lo.(v) and b = q * hi.(v) in
           (mn + min a b, mx + max a b))
         (c, c) ts)

let cmp_range op (amn, amx) =
  (* range of (lhs - rhs) against 0 *)
  match op with
  | Exp.Eq -> if amn = 0 && amx = 0 then T else if amn > 0 || amx < 0 then F else M
  | Exp.Ne -> if amn > 0 || amx < 0 then T else if amn = 0 && amx = 0 then F else M
  | Exp.Lt -> if amx < 0 then T else if amn >= 0 then F else M
  | Exp.Le -> if amx <= 0 then T else if amn > 0 then F else M
  | Exp.Gt -> if amn > 0 then T else if amx <= 0 then F else M
  | Exp.Ge -> if amn >= 0 then T else if amx < 0 then F else M

let rec b_range lo hi = function
  | Btop -> M
  | Bbool true -> T
  | Bbool false -> F
  | Bcmp (op, a, b) ->
    (match a_range lo hi (a_sub a b) with
     | None -> M
     | Some r -> cmp_range op r)
  | Band (a, b) ->
    (match b_range lo hi a, b_range lo hi b with
     | F, _ | _, F -> F
     | T, T -> T
     | _ -> M)
  | Bor (a, b) ->
    (match b_range lo hi a, b_range lo hi b with
     | T, _ | _, T -> T
     | F, F -> F
     | _ -> M)
  | Bnot a -> (match b_range lo hi a with T -> F | F -> T | M -> M)

type verdict = V_no | V_yes of bool  (* payload: witness pinned down *)

(* search for an assignment where [eq] (if any) is zero, all guards can
   hold, the two threads are distinct, and — when [lockstep] — they do
   not share a warp. Interval pruning on boxes; [budget] caps nodes. *)
let solve ~lockstep ~ws ~lin1 ~lin2 ~t1 ~t2 ~extents eq guards involved
    (vars : vinfo array) budget =
  let n = Array.length vars in
  let lo = Array.make n 0 and hi = Array.make n 0 in
  Array.iteri
    (fun i v ->
      lo.(i) <- v.vlo;
      hi.(i) <- v.vhi)
    vars;
  let exhausted = ref false in
  let nodes = ref budget in
  (* split order: highest |coefficient in eq| × width first, so the
     high-radix digits of a linearised index are pinned before the low
     ones and the equality prune can cut whole subtrees — splitting a
     coefficient-1 tid first leaves eq's range dominated by the wider
     terms and prunes nothing *)
  let weight = Array.make n 1 in
  (match eq with
   | Some (Aff (_, ts)) ->
     List.iter (fun (q, v) -> weight.(v) <- max weight.(v) (abs q)) ts
   | _ -> ());
  let warp_of_range l =
    match a_range lo hi l with
    | None -> None
    | Some (mn, mx) ->
      let wa = mn / ws and wb = mx / ws in
      if wa = wb then Some wa else None
  in
  let rec go () =
    if !exhausted then false
    else if !nodes <= 0 then begin
      exhausted := true;
      false
    end
    else begin
      decr nodes;
      (* prune: address equality *)
      let eq_ok =
        match eq with
        | None -> true
        | Some d -> (
          match a_range lo hi d with
          | None -> true
          | Some (mn, mx) -> mn <= 0 && 0 <= mx)
      in
      let guards_ok =
        eq_ok && List.for_all (fun g -> b_range lo hi g <> F) guards
      in
      (* prune: the pair must be able to name two distinct threads *)
      let distinct_ok =
        guards_ok
        && Array.exists Fun.id
             (Array.mapi
                (fun d ext ->
                  ext > 1
                  && not
                       (lo.(t1.(d)) = hi.(t1.(d))
                       && lo.(t2.(d)) = hi.(t2.(d))
                       && lo.(t1.(d)) = lo.(t2.(d))))
                extents)
      in
      (* prune: a box wholly inside one warp cannot witness a race *)
      let warp_ok =
        distinct_ok
        && (not lockstep
           ||
           match warp_of_range lin1, warp_of_range lin2 with
           | Some w1, Some w2 -> w1 <> w2
           | _ -> true)
      in
      if not warp_ok then false
      else begin
        (* pick the widest unresolved variable among the involved *)
        let sv = ref (-1) and sw = ref 0 in
        List.iter
          (fun v ->
            let w = (hi.(v) - lo.(v)) * weight.(v) in
            if w > !sw then begin
              sw := w;
              sv := v
            end)
          involved;
        if !sv < 0 then
          (* leaf: every involved variable pinned; interval evaluation
             is exact here, so the prunes above were the full check *)
          true
        else begin
          let v = !sv in
          let l = lo.(v) and h = hi.(v) in
          let mid = l + ((h - l) / 2) in
          hi.(v) <- mid;
          let hit = go () in
          hi.(v) <- h;
          if hit then true
          else begin
            lo.(v) <- mid + 1;
            let hit = go () in
            lo.(v) <- l;
            hit
          end
        end
      end
    end
  in
  let hit = go () in
  if hit then V_yes true else if !exhausted then V_yes false else V_no

(* ----- putting it together ----- *)

let check ?(warp_size = 32) ?(lockstep = true) ?(budget = 60_000)
    (l : Kir.launch) : report =
  let k = l.Kir.kernel in
  let bx, by, bz = l.Kir.block in
  let env =
    {
      k;
      blk = l.Kir.block;
      params = l.Kir.kparams;
      vars = Array.make 8 { vlo = 0; vhi = 0; vshared = false; vtaint = false };
      nvars = 0;
      tids = [| 0; 1; 2 |];
      regs = Array.make (max 1 k.Kir.nregs) top;
      guards = [];
      loop_taint = [];
      phases = [];
      cur = [];
      diverg = [];
    }
  in
  let mk_tid ext =
    fresh_var env { vlo = 0; vhi = ext - 1; vshared = false; vtaint = true }
  in
  env.tids.(0) <- mk_tid bx;
  env.tids.(1) <- mk_tid by;
  env.tids.(2) <- mk_tid bz;
  List.iter (walk env [ "body" ]) k.Kir.body;
  let phases = List.rev (env.cur :: env.phases) in
  let diverg = List.sort_uniq compare (List.rev env.diverg) in
  let tpb = bx * by * bz in
  if tpb <= 1 || (lockstep && tpb <= warp_size) then
    (* one thread, or the whole block is one lockstep warp *)
    { races = []; divergence = diverg }
  else begin
    let races = ref [] in
    let seen = Hashtbl.create 16 in
    let by_var (_, v1) (_, v2) = compare (v1 : int) v2 in
    let lin vars_tids =
      Aff
        ( 0,
          List.sort by_var
            [
              (1, vars_tids.(0));
              (bx, vars_tids.(1));
              (bx * by, vars_tids.(2));
            ] )
    in
    let t1 = env.tids in
    let extents = [| bx; by; bz |] in
    (* refute a conflict algebraically: when the index difference is a
       pure "diagonal" system Σ q·(v − v') = 0 over paired private
       variables whose coefficients form a mixed-radix (injective)
       encoding covering every tid dimension wider than one thread, its
       only solution is v = v' for all pairs — the two threads coincide,
       so no conflict exists. This is what lets the injective tree and
       prefetch indices (lin, lin + k·tpb) pass without enumerating the
       whole diagonal hyperplane in the solver. *)
    let diagonal_refuted eq (pairs : (int * int) list) =
      match eq with
      | None | Some Top -> false
      | Some (Aff (c, _)) when c <> 0 -> false
      | Some (Aff (_, ts)) ->
        let coef = Hashtbl.create 8 in
        List.iter (fun (q, v) -> Hashtbl.replace coef v q) ts;
        let deltas = ref [] in
        let ok =
          List.for_all
            (fun (v1, v2) ->
              let q1 =
                match Hashtbl.find_opt coef v1 with Some q -> q | None -> 0
              in
              let q2 =
                match Hashtbl.find_opt coef v2 with Some q -> q | None -> 0
              in
              Hashtbl.remove coef v1;
              Hashtbl.remove coef v2;
              if q1 <> -q2 then false
              else begin
                if q1 <> 0 then begin
                  let w = env.vars.(v1).vhi - env.vars.(v1).vlo in
                  if w > 0 then deltas := (abs q1, w, v1) :: !deltas
                end;
                true
              end)
            pairs
          && Hashtbl.length coef = 0
          (* every thread dimension wider than one lane must be pinned
             by the system, else distinct threads solve it trivially *)
          && Array.for_all Fun.id
               (Array.mapi
                  (fun d ext ->
                    ext <= 1
                    || List.exists (fun (_, _, v) -> v = t1.(d)) !deltas)
                  extents)
        in
        ok
        &&
        let ds =
          List.sort (fun (q1, _, _) (q2, _, _) -> compare q1 q2) !deltas
        in
        let rec injective span = function
          | [] -> true
          | (q, w, _) :: rest -> span < q && injective (span + (q * w)) rest
        in
        injective 0 ds
    in
    (* rename an access to the second symbolic thread: private vars
       (tids, loop counters) get fresh copies, shared vars persist *)
    let rename_pair (a : access) (t2 : int array) =
      let map = Hashtbl.create 8 in
      Hashtbl.replace map env.tids.(0) t2.(0);
      Hashtbl.replace map env.tids.(1) t2.(1);
      Hashtbl.replace map env.tids.(2) t2.(2);
      let rn_var v =
        if env.vars.(v).vshared then v
        else
          match Hashtbl.find_opt map v with
          | Some v' -> v'
          | None ->
            let v' = fresh_var env env.vars.(v) in
            Hashtbl.replace map v v';
            v'
      in
      let rn_aval = function
        | Top -> Top
        | Aff (c, ts) ->
          Aff
            ( c,
              List.sort
                (fun (_, v1) (_, v2) -> compare (v1 : int) v2)
                (List.map (fun (q, v) -> (q, rn_var v)) ts) )
      in
      let rec rn_bval = function
        | (Btop | Bbool _) as b -> b
        | Bcmp (op, a, b) -> Bcmp (op, rn_aval a, rn_aval b)
        | Band (a, b) -> Band (rn_bval a, rn_bval b)
        | Bor (a, b) -> Bor (rn_bval a, rn_bval b)
        | Bnot a -> Bnot (rn_bval a)
      in
      let a' =
        { a with
          a_idx = rn_aval a.a_idx;
          a_guards = List.map rn_bval a.a_guards;
        }
      in
      let pairs = Hashtbl.fold (fun v v' acc -> (v, v') :: acc) map [] in
      (a', pairs)
    in
    List.iteri
      (fun phase accs ->
        let accs = Array.of_list (List.rev accs) in
        let n = Array.length accs in
        for i = 0 to n - 1 do
          for j = i to n - 1 do
            let a = accs.(i) and b = accs.(j) in
            if
              a.a_arr = b.a_arr
              && (a.a_write || b.a_write)
              && not (Hashtbl.mem seen (a.a_site, b.a_site, a.a_arr))
            then begin
              (* orient so [w] is a write *)
              let w, o = if a.a_write then (a, b) else (b, a) in
              let t2 =
                Array.map
                  (fun d ->
                    fresh_var env
                      {
                        vlo = 0;
                        vhi = extents.(d) - 1;
                        vshared = false;
                        vtaint = true;
                      })
                  [| 0; 1; 2 |]
              in
              let o2, pairs = rename_pair o t2 in
              let eq =
                match w.a_idx, o2.a_idx with
                | Top, _ | _, Top -> None
                | wa, oa -> Some (a_sub wa oa)
              in
              let guards = w.a_guards @ o2.a_guards in
              let involved =
                let vs =
                  List.fold_left b_vars
                    (match eq with
                     | None -> []
                     | Some d -> a_vars [] d)
                    guards
                in
                let vs =
                  Array.to_list t1 @ Array.to_list t2 @ vs
                in
                List.sort_uniq compare vs
              in
              let vars = Array.sub env.vars 0 env.nvars in
              if diagonal_refuted eq pairs then ()
              else
              match
                solve ~lockstep ~ws:warp_size ~lin1:(lin t1) ~lin2:(lin t2)
                  ~t1 ~t2 ~extents eq guards involved vars budget
              with
              | V_no -> ()
              | V_yes sure ->
                Hashtbl.replace seen (a.a_site, b.a_site, a.a_arr) ();
                races :=
                  {
                    r_array = w.a_arr;
                    r_phase = phase;
                    r_write = w.a_site;
                    r_other = o.a_site;
                    r_other_writes = o.a_write;
                    r_sure = sure && eq <> None;
                  }
                  :: !races
            end
          done
        done)
      phases;
    { races = List.rev !races; divergence = diverg }
  end

(* convenience: every kernel of a lowered plan *)
let check_launches ?warp_size ?lockstep ?budget (ls : Kir.launch list) :
    (string * report) list =
  List.map
    (fun (l : Kir.launch) ->
      (l.Kir.kernel.Kir.kname, check ?warp_size ?lockstep ?budget l))
    ls
