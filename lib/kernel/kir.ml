type dim = X | Y | Z

type exp =
  | Int of int
  | Float of float
  | Bool of bool
  | Reg of int
  | Tid of dim
  | Bid of dim
  | Bdim of dim
  | Gdim of dim
  | Param of string
  | Bin of Ppat_ir.Exp.binop * exp * exp
  | Un of Ppat_ir.Exp.unop * exp
  | Cmp of Ppat_ir.Exp.cmpop * exp * exp
  | Select of exp * exp * exp
  | Load_g of string * exp
  | Load_s of string * exp
  (* warp primitives: cross-lane register exchange and votes. The value
     (resp. predicate) operand is re-evaluated at the source lane, so it
     must be memory-free and shuffle-free — [validate] enforces this.
     A source lane outside [0, warp_size) or past the block edge yields
     the calling lane's own value, and both engines trap when a shuffle
     or vote executes under divergent control flow (active mask narrower
     than the warp's full lane set). *)
  | Shfl_down of exp * exp  (* value, lane delta *)
  | Shfl_xor of exp * exp  (* value, lane mask *)
  | Shfl_idx of exp * exp  (* value, absolute source lane *)
  | Ballot of exp
  | Any of exp
  | All of exp

type stmt =
  | Set of int * exp
  | Store_g of string * exp * exp
  | Store_s of string * exp * exp
  | Atomic_add_g of string * exp * exp
  | Atomic_add_ret of { reg : int; buf : string; idx : exp; value : exp }
  | If of exp * stmt list * stmt list
  | For of { reg : int; lo : exp; hi : exp; step : exp; body : stmt list }
  | While of exp * stmt list
  | Sync
  | Malloc_event

type smem_decl = { sname : string; selem : Ppat_ir.Ty.scalar; selems : int }

type kernel = {
  kname : string;
  nregs : int;
  reg_names : string array;
  reg_types : Ppat_ir.Ty.scalar array;
  smem : smem_decl list;
  body : stmt list;
}

type launch = {
  kernel : kernel;
  grid : int * int * int;
  block : int * int * int;
  kparams : (string * int) list;
}

module Rb = struct
  type t = {
    mutable names : string list;
    tbl : (string, int) Hashtbl.t;
    types : (int, Ppat_ir.Ty.scalar) Hashtbl.t;
  }

  let create () =
    { names = []; tbl = Hashtbl.create 16; types = Hashtbl.create 16 }

  let add t name =
    let slot = Hashtbl.length t.tbl in
    Hashtbl.replace t.tbl name slot;
    t.names <- name :: t.names;
    slot

  let reg t name =
    match Hashtbl.find_opt t.tbl name with
    | Some slot -> slot
    | None -> add t name

  let fresh t name =
    let rec unique i =
      let candidate = Printf.sprintf "%s_%d" name i in
      if Hashtbl.mem t.tbl candidate then unique (i + 1) else candidate
    in
    let name = if Hashtbl.mem t.tbl name then unique 0 else name in
    add t name

  let count t = Hashtbl.length t.tbl
  let names t = Array.of_list (List.rev t.names)
  let set_type t slot ty = Hashtbl.replace t.types slot ty

  let types t =
    Array.init (count t) (fun slot ->
        match Hashtbl.find_opt t.types slot with
        | Some ty -> ty
        | None -> Ppat_ir.Ty.I32)
end

let threads_per_block l =
  let x, y, z = l.block in
  x * y * z

let blocks l =
  let x, y, z = l.grid in
  x * y * z

let geometry l : Ppat_gpu.Timing.geometry = { grid = l.grid; block = l.block }

(* One traversal classifying everything downstream consumers care about:
   the parallel scheduler (global atomics force serial simulation), the
   race checker (shuffles/votes have warp-convergence obligations) and
   cache keys / reporting. Kept as a single fold so the classifications
   cannot drift apart. *)
type features = {
  f_global_atomics : bool;
  f_shuffles : bool;
  f_votes : bool;
  f_device_malloc : bool;
}

let no_features =
  {
    f_global_atomics = false;
    f_shuffles = false;
    f_votes = false;
    f_device_malloc = false;
  }

let features k =
  let rec exp acc = function
    | Int _ | Float _ | Bool _ | Reg _ | Tid _ | Bid _ | Bdim _ | Gdim _
    | Param _ ->
      acc
    | Bin (_, a, b) | Cmp (_, a, b) -> exp (exp acc a) b
    | Un (_, a) | Load_g (_, a) | Load_s (_, a) -> exp acc a
    | Select (c, a, b) -> exp (exp (exp acc c) a) b
    | Shfl_down (a, b) | Shfl_xor (a, b) | Shfl_idx (a, b) ->
      exp (exp { acc with f_shuffles = true } a) b
    | Ballot p | Any p | All p -> exp { acc with f_votes = true } p
  and stmt acc = function
    | Set (_, e) -> exp acc e
    | Store_g (_, i, v) | Store_s (_, i, v) -> exp (exp acc i) v
    | Atomic_add_g (_, i, v) ->
      exp (exp { acc with f_global_atomics = true } i) v
    | Atomic_add_ret { idx; value; _ } ->
      exp (exp { acc with f_global_atomics = true } idx) value
    | If (c, t, e) -> stmts (stmts (exp acc c) t) e
    | For { lo; hi; step; body; _ } ->
      stmts (exp (exp (exp acc lo) hi) step) body
    | While (c, body) -> stmts (exp acc c) body
    | Sync -> acc
    | Malloc_event -> { acc with f_device_malloc = true }
  and stmts acc l = List.fold_left stmt acc l in
  stmts no_features k.body

let uses_global_atomics k = (features k).f_global_atomics

let validate k =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let reg slot =
    if slot < 0 || slot >= k.nregs then err "register %d out of range" slot
  in
  let smem name =
    if not (List.exists (fun d -> String.equal d.sname name) k.smem) then
      err "undeclared shared array %S" name
  in
  (* warp-primitive operands are re-evaluated at the source lane, so they
     must be deterministic pure lane functions: no memory reads (another
     lane may have raced the location) and no nested warp primitives (the
     cross-lane re-evaluation would nest exchanges with no defined
     order). Registers, thread indices, params and arithmetic are fine. *)
  let rec warp_pure what = function
    | Int _ | Float _ | Bool _ | Reg _ | Tid _ | Bid _ | Bdim _ | Gdim _
    | Param _ ->
      ()
    | Bin (_, a, b) | Cmp (_, a, b) ->
      warp_pure what a;
      warp_pure what b
    | Un (_, a) -> warp_pure what a
    | Select (c, a, b) ->
      warp_pure what c;
      warp_pure what a;
      warp_pure what b
    | Load_g _ | Load_s _ -> err "%s operand reads memory" what
    | Shfl_down _ | Shfl_xor _ | Shfl_idx _ | Ballot _ | Any _ | All _ ->
      err "%s operand nests another warp primitive" what
  in
  let rec exp = function
    | Int _ | Float _ | Bool _ | Tid _ | Bid _ | Bdim _ | Gdim _ | Param _ ->
      ()
    | Reg r -> reg r
    | Bin (_, a, b) | Cmp (_, a, b) ->
      exp a;
      exp b
    | Un (_, a) -> exp a
    | Select (c, a, b) ->
      exp c;
      exp a;
      exp b
    | Load_g (_, i) -> exp i
    | Load_s (s, i) ->
      smem s;
      exp i
    | Shfl_down (v, l) | Shfl_xor (v, l) | Shfl_idx (v, l) ->
      warp_pure "shuffle" v;
      warp_pure "shuffle" l;
      exp v;
      exp l
    | Ballot p | Any p | All p ->
      warp_pure "vote" p;
      exp p
  in
  let rec stmt = function
    | Set (r, e) ->
      reg r;
      exp e
    | Store_g (_, i, v) ->
      exp i;
      exp v
    | Store_s (s, i, v) ->
      smem s;
      exp i;
      exp v
    | Atomic_add_g (_, i, v) ->
      exp i;
      exp v
    | Atomic_add_ret { reg = r; idx; value; _ } ->
      reg r;
      exp idx;
      exp value
    | If (c, t, e) ->
      exp c;
      List.iter stmt t;
      List.iter stmt e
    | For { reg = r; lo; hi; step; body } ->
      reg r;
      exp lo;
      exp hi;
      exp step;
      (* a statically-known zero step validates into an infinite loop;
         reject it here instead of trapping at simulation time *)
      (match step with
       | Int 0 -> err "for-loop register %d has constant zero step" r
       | Float f when f = 0.0 ->
         err "for-loop register %d has constant zero step" r
       | _ -> ());
      List.iter stmt body
    | While (c, body) ->
      exp c;
      List.iter stmt body
    | Sync | Malloc_event -> ()
  in
  List.iter stmt k.body;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

(* ----- printing ----- *)

let dim_name = function X -> "x" | Y -> "y" | Z -> "z"

let rec pp_exp names ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Float x -> Format.fprintf ppf "%g" x
  | Bool b -> Format.fprintf ppf "%b" b
  | Reg r ->
    Format.pp_print_string ppf
      (if r < Array.length names then names.(r) else Printf.sprintf "r%d" r)
  | Tid d -> Format.fprintf ppf "threadIdx.%s" (dim_name d)
  | Bid d -> Format.fprintf ppf "blockIdx.%s" (dim_name d)
  | Bdim d -> Format.fprintf ppf "blockDim.%s" (dim_name d)
  | Gdim d -> Format.fprintf ppf "gridDim.%s" (dim_name d)
  | Param p -> Format.pp_print_string ppf p
  | Bin ((Ppat_ir.Exp.Min | Ppat_ir.Exp.Max) as op, a, b) ->
    Format.fprintf ppf "%s(%a, %a)"
      (match op with Ppat_ir.Exp.Min -> "min" | _ -> "max")
      (pp_exp names) a (pp_exp names) b
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" (pp_exp names) a (Ppat_ir.Exp.binop_name op)
      (pp_exp names) b
  | Un (op, a) ->
    Format.fprintf ppf "%s(%a)" (Ppat_ir.Exp.unop_name op) (pp_exp names) a
  | Cmp (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" (pp_exp names) a
      (Ppat_ir.Exp.cmpop_name op) (pp_exp names) b
  | Select (c, a, b) ->
    Format.fprintf ppf "(%a ? %a : %a)" (pp_exp names) c (pp_exp names) a
      (pp_exp names) b
  | Load_g (buf, i) -> Format.fprintf ppf "%s[%a]" buf (pp_exp names) i
  | Load_s (s, i) -> Format.fprintf ppf "%s[%a]" s (pp_exp names) i
  | Shfl_down (v, d) ->
    Format.fprintf ppf "__shfl_down_sync(%a, %a)" (pp_exp names) v
      (pp_exp names) d
  | Shfl_xor (v, m) ->
    Format.fprintf ppf "__shfl_xor_sync(%a, %a)" (pp_exp names) v
      (pp_exp names) m
  | Shfl_idx (v, s) ->
    Format.fprintf ppf "__shfl_sync(%a, %a)" (pp_exp names) v (pp_exp names) s
  | Ballot p -> Format.fprintf ppf "__ballot_sync(%a)" (pp_exp names) p
  | Any p -> Format.fprintf ppf "__any_sync(%a)" (pp_exp names) p
  | All p -> Format.fprintf ppf "__all_sync(%a)" (pp_exp names) p

let rec pp_stmt names ppf = function
  | Set (r, e) ->
    Format.fprintf ppf "@[<h>%a = %a@]" (pp_exp names) (Reg r) (pp_exp names)
      e
  | Store_g (buf, i, v) ->
    Format.fprintf ppf "@[<h>%s[%a] = %a@]" buf (pp_exp names) i
      (pp_exp names) v
  | Store_s (s, i, v) ->
    Format.fprintf ppf "@[<h>%s[%a] = %a@]" s (pp_exp names) i (pp_exp names)
      v
  | Atomic_add_g (buf, i, v) ->
    Format.fprintf ppf "@[<h>atomicAdd(&%s[%a], %a)@]" buf (pp_exp names) i
      (pp_exp names) v
  | Atomic_add_ret { reg; buf; idx; value } ->
    Format.fprintf ppf "@[<h>%a = atomicAdd(&%s[%a], %a)@]" (pp_exp names)
      (Reg reg) buf (pp_exp names) idx (pp_exp names) value
  | If (c, t, []) ->
    Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,}" (pp_exp names) c
      (pp_stmts names) t
  | If (c, t, e) ->
    Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,@[<v 2>} else {@,%a@]@,}"
      (pp_exp names) c (pp_stmts names) t (pp_stmts names) e
  | For { reg; lo; hi; step; body } ->
    Format.fprintf ppf "@[<v 2>for (%a = %a; %a < %a; %a += %a) {@,%a@]@,}"
      (pp_exp names) (Reg reg) (pp_exp names) lo (pp_exp names) (Reg reg)
      (pp_exp names) hi (pp_exp names) (Reg reg) (pp_exp names) step
      (pp_stmts names) body
  | While (c, body) ->
    Format.fprintf ppf "@[<v 2>while %a {@,%a@]@,}" (pp_exp names) c
      (pp_stmts names) body
  | Sync -> Format.pp_print_string ppf "__syncthreads()"
  | Malloc_event -> Format.pp_print_string ppf "/* device malloc */"

and pp_stmts names ppf stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_stmt names) ppf stmts

let pp_kernel ppf k =
  Format.fprintf ppf "@[<v 2>kernel %s {@," k.kname;
  List.iter
    (fun d ->
      Format.fprintf ppf "shared %a %s[%d]@," Ppat_ir.Ty.pp_scalar d.selem
        d.sname d.selems)
    k.smem;
  pp_stmts k.reg_names ppf k.body;
  Format.fprintf ppf "@]@,}"

(* ----- structural fingerprints -----

   The sweep evaluator groups candidate mappings whose lowered code has
   the same *shape*: identical kernel structure once every numeric
   constant is wiped, so two candidates that differ only in launch
   geometry, tile sizes or degree-of-parallelism parameters land in the
   same group. The abstraction keeps everything order- and
   structure-relevant (operators, register slots, buffer names, shared
   arrays and their element types, kernel-parameter names) and erases
   exactly the values geometry search varies: integer/float literals,
   grid/block dimensions, shared-array extents and kernel-parameter
   values. *)

let rec abstract_exp : exp -> exp = function
  | Int _ -> Int 0
  | Float _ -> Float 0.
  | (Bool _ | Reg _ | Tid _ | Bid _ | Bdim _ | Gdim _ | Param _) as e -> e
  | Bin (op, a, b) -> Bin (op, abstract_exp a, abstract_exp b)
  | Un (op, a) -> Un (op, abstract_exp a)
  | Cmp (op, a, b) -> Cmp (op, abstract_exp a, abstract_exp b)
  | Select (c, a, b) -> Select (abstract_exp c, abstract_exp a, abstract_exp b)
  | Load_g (b, i) -> Load_g (b, abstract_exp i)
  | Load_s (s, i) -> Load_s (s, abstract_exp i)
  | Shfl_down (v, l) -> Shfl_down (abstract_exp v, abstract_exp l)
  | Shfl_xor (v, l) -> Shfl_xor (abstract_exp v, abstract_exp l)
  | Shfl_idx (v, l) -> Shfl_idx (abstract_exp v, abstract_exp l)
  | Ballot p -> Ballot (abstract_exp p)
  | Any p -> Any (abstract_exp p)
  | All p -> All (abstract_exp p)

let rec abstract_stmt : stmt -> stmt = function
  | Set (r, e) -> Set (r, abstract_exp e)
  | Store_g (b, i, v) -> Store_g (b, abstract_exp i, abstract_exp v)
  | Store_s (s, i, v) -> Store_s (s, abstract_exp i, abstract_exp v)
  | Atomic_add_g (b, i, v) -> Atomic_add_g (b, abstract_exp i, abstract_exp v)
  | Atomic_add_ret { reg; buf; idx; value } ->
    Atomic_add_ret { reg; buf; idx = abstract_exp idx; value = abstract_exp value }
  | If (c, t, e) ->
    If (abstract_exp c, List.map abstract_stmt t, List.map abstract_stmt e)
  | For { reg; lo; hi; step; body } ->
    For
      {
        reg;
        lo = abstract_exp lo;
        hi = abstract_exp hi;
        step = abstract_exp step;
        body = List.map abstract_stmt body;
      }
  | While (c, body) -> While (abstract_exp c, List.map abstract_stmt body)
  | (Sync | Malloc_event) as s -> s

let shape_fingerprint (l : launch) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( l.kernel.kname,
            List.map abstract_stmt l.kernel.body,
            List.map (fun (d : smem_decl) -> (d.sname, d.selem)) l.kernel.smem,
            List.map fst l.kparams )
          []))
