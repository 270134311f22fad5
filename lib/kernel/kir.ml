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
  (* warp shuffles: cross-lane register exchange. The value operand is
     re-evaluated at the source lane, so it must be memory-free and
     shuffle-free — [validate] enforces this. A source lane outside
     [0, warp_size) or past the block edge yields the calling lane's own
     value, and both engines trap when a shuffle executes under divergent
     control flow (active mask narrower than the warp's full lane set). *)
  | Shfl_down of exp * exp  (* value, lane delta *)
  | Shfl_idx of exp * exp  (* value, absolute source lane *)

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

(* global atomics let blocks observe each other through the atomics'
   results, so the parallel scheduler runs such launches serially *)
let has_global_atomics k =
  let rec stmt = function
    | Atomic_add_g _ | Atomic_add_ret _ -> true
    | If (_, t, e) -> List.exists stmt t || List.exists stmt e
    | For { body; _ } | While (_, body) -> List.exists stmt body
    | Set _ | Store_g _ | Store_s _ | Sync | Malloc_event -> false
  in
  List.exists stmt k.body

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
  (* shuffle operands are re-evaluated at the source lane, so they must be
     deterministic pure lane functions: no memory reads (another lane may
     have raced the location) and no nested shuffles (the cross-lane
     re-evaluation would nest exchanges with no defined order).
     Registers, thread indices, params and arithmetic are fine. *)
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
    | Shfl_down _ | Shfl_idx _ ->
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
    | Shfl_down (v, l) | Shfl_idx (v, l) ->
      warp_pure "shuffle" v;
      warp_pure "shuffle" l;
      exp v;
      exp l
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
  | Shfl_idx (v, s) ->
    Format.fprintf ppf "__shfl_sync(%a, %a)" (pp_exp names) v (pp_exp names) s

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
