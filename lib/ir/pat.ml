type psize = Sconst of int | Sparam of string | Sexp of Exp.t | Sdyn of Exp.t

type reducer = { init : Exp.t; a : string; b : string; combine : Exp.t }

type kind =
  | Map of { yield : Exp.t }
  | Reduce of { yield : Exp.t; r : reducer }
  | Arg_min of { yield : Exp.t }
  | Foreach
  | Filter of { pred : Exp.t; yield : Exp.t }
  | Group_by of { key : Exp.t; value : Exp.t; num_keys : Ty.extent }

and stmt =
  | Let of string * Exp.t
  | Assign of string * Exp.t
  | Store of string * Exp.t list * Exp.t
  | Atomic_add of string * Exp.t list * Exp.t
  | Nested of nested
  | If of Exp.t * stmt list * stmt list
  | For of string * Exp.t * Exp.t * stmt list
  | While of Exp.t * stmt list

and nested = { bind : string option; pat : pattern }

and pattern = {
  pid : int;
  label : string;
  size : psize;
  kind : kind;
  body : stmt list;
}

type buf_kind = Input | Output | Temp
type layout = Row_major | Col_major

type buffer = {
  bname : string;
  elem : Ty.scalar;
  dims : Ty.extent list;
  mutable blayout : layout;
  bkind : buf_kind;
}

type step =
  | Launch of nested
  | Host_loop of { var : string; count : Ty.extent; body : step list }
  | Swap of string * string
  | While_flag of { flag : string; max_iter : int; body : step list }

type prog = {
  pname : string;
  defaults : (string * int) list;
  buffers : buffer list;
  steps : step list;
}

let pattern ?label ~pid ~size ~kind body =
  let label =
    match label with Some l -> l | None -> Printf.sprintf "p%d" pid
  in
  { pid; label; size; kind; body }

let nested ?bind pat = { bind; pat }

let buffer ?(layout = Row_major) bname elem dims bkind =
  { bname; elem; dims; blayout = layout; bkind }

let find_buffer prog name =
  match List.find_opt (fun b -> String.equal b.bname name) prog.buffers with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "find_buffer: no buffer %S" name)

let sum_reducer =
  { init = Exp.Float 0.; a = "a"; b = "b";
    combine = Exp.Bin (Exp.Add, Exp.Var "a", Exp.Var "b") }

let max_reducer =
  { init = Exp.Float neg_infinity; a = "a"; b = "b";
    combine = Exp.Bin (Exp.Max, Exp.Var "a", Exp.Var "b") }

let min_reducer =
  { init = Exp.Float infinity; a = "a"; b = "b";
    combine = Exp.Bin (Exp.Min, Exp.Var "a", Exp.Var "b") }

(* ----- traversal ----- *)

let rec iter_stmts_pattern f level p =
  f level p;
  iter_stmts f (level + 1) p.body

and iter_stmts f level stmts =
  let rec stmt = function
    | Let _ | Assign _ | Store _ | Atomic_add _ -> ()
    | Nested n -> iter_stmts_pattern f level n.pat
    | If (_, t, e) ->
      List.iter stmt t;
      List.iter stmt e
    | For (_, _, _, b) | While (_, b) -> List.iter stmt b
  in
  List.iter stmt stmts

let launches prog =
  let rec step acc = function
    | Launch n ->
      if List.exists (fun m -> m.pat.pid = n.pat.pid) acc then acc
      else n :: acc
    | Host_loop { body; _ } | While_flag { body; _ } ->
      List.fold_left step acc body
    | Swap _ -> acc
  in
  List.rev (List.fold_left step [] prog.steps)

let iter_patterns f prog =
  let rec step = function
    | Launch n -> iter_stmts_pattern f 0 n.pat
    | Host_loop { body; _ } | While_flag { body; _ } -> List.iter step body
    | Swap _ -> ()
  in
  List.iter step prog.steps

let fold_patterns f init prog =
  let acc = ref init in
  iter_patterns (fun level p -> acc := f !acc level p) prog;
  !acc

(* ----- validation ----- *)

let validate prog =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* unique buffer names *)
  let names = List.map (fun b -> b.bname) prog.buffers in
  let rec dup = function
    | [] -> ()
    | x :: rest ->
      if List.mem x rest then err "duplicate buffer %S" x;
      dup rest
  in
  dup names;
  (* unique pattern ids, nesting depth *)
  let seen = Hashtbl.create 16 in
  iter_patterns
    (fun level p ->
      if Hashtbl.mem seen p.pid then err "duplicate pattern id %d" p.pid;
      Hashtbl.replace seen p.pid ();
      if level > 2 then err "pattern %s nested deeper than 3 levels" p.label;
      (match p.size, level with
       | Sdyn _, 0 -> err "top-level pattern %s has a dynamic size" p.label
       | _ -> ()))
    prog;
  (* stores and binds *)
  let locals = Hashtbl.create 16 in
  iter_patterns
    (fun level p ->
      let bind_of_nested n =
        match n.bind, n.pat.kind with
        | None, (Map _ | Reduce _ | Arg_min _ | Filter _ | Group_by _) ->
          err "pattern %s produces a value but has no binding" n.pat.label
        | Some _, Foreach ->
          err "foreach pattern %s must not be bound" n.pat.label
        | Some b, Map _ when level >= 0 -> Hashtbl.replace locals b ()
        | Some b, _ -> Hashtbl.replace locals b ()
        | None, Foreach -> ()
      in
      let rec stmt = function
        | Let _ | Assign _ -> ()
        | Store (b, _, _) | Atomic_add (b, _, _) ->
          if (not (List.mem b names)) && not (Hashtbl.mem locals b) then
            err "store into unknown buffer %S (pattern %s)" b p.label
        | Nested n ->
          bind_of_nested n;
          List.iter stmt n.pat.body
        | If (_, t, e) ->
          List.iter stmt t;
          List.iter stmt e
        | For (_, _, _, b) | While (_, b) -> List.iter stmt b
      in
      (* locals bound by this pattern's own body become visible inside it *)
      List.iter stmt p.body)
    prog;
  (* top-level launches must bind globals when they produce values *)
  let rec step = function
    | Launch n -> (
      match n.bind, n.pat.kind with
      | Some b, _ when not (List.mem b names) ->
        err "launch of %s binds unknown buffer %S" n.pat.label b
      | None, (Map _ | Reduce _ | Arg_min _ | Filter _ | Group_by _) ->
        err "top-level pattern %s must bind an output buffer" n.pat.label
      | _ -> ())
    | Host_loop { body; _ } | While_flag { body; _ } -> List.iter step body
    | Swap (a, b) ->
      if not (List.mem a names) then err "swap of unknown buffer %S" a;
      if not (List.mem b names) then err "swap of unknown buffer %S" b
  in
  List.iter step prog.steps;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

(* ----- printing ----- *)

let pp_psize ppf = function
  | Sconst n -> Format.fprintf ppf "%d" n
  | Sparam s -> Format.fprintf ppf "$%s" s
  | Sexp e -> Format.fprintf ppf "%a" Exp.pp e
  | Sdyn e -> Format.fprintf ppf "dyn(%a)" Exp.pp e

let kind_name = function
  | Map _ -> "map"
  | Reduce _ -> "reduce"
  | Arg_min _ -> "argmin"
  | Foreach -> "foreach"
  | Filter _ -> "filter"
  | Group_by _ -> "groupBy"

let rec pp_stmt ppf = function
  | Let (x, e) -> Format.fprintf ppf "@[<h>%s = %a@]" x Exp.pp e
  | Assign (x, e) -> Format.fprintf ppf "@[<h>%s := %a@]" x Exp.pp e
  | Store (b, idxs, e) ->
    Format.fprintf ppf "@[<h>%s[%a] <- %a@]" b
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Exp.pp)
      idxs Exp.pp e
  | Atomic_add (b, idxs, e) ->
    Format.fprintf ppf "@[<h>atomic %s[%a] += %a@]" b
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Exp.pp)
      idxs Exp.pp e
  | Nested { bind; pat } ->
    (match bind with
     | Some b -> Format.fprintf ppf "@[<v 2>%s = %a@]" b pp_pattern pat
     | None -> pp_pattern ppf pat)
  | If (c, t, []) ->
    Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,}" Exp.pp c pp_stmts t
  | If (c, t, e) ->
    Format.fprintf ppf "@[<v 2>if %a {@,%a@]@,@[<v 2>} else {@,%a@]@,}" Exp.pp
      c pp_stmts t pp_stmts e
  | For (x, lo, hi, b) ->
    Format.fprintf ppf "@[<v 2>for %s in [%a, %a) {@,%a@]@,}" x Exp.pp lo
      Exp.pp hi pp_stmts b
  | While (c, b) ->
    Format.fprintf ppf "@[<v 2>while %a {@,%a@]@,}" Exp.pp c pp_stmts b

and pp_stmts ppf stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt ppf stmts

and pp_pattern ppf p =
  let yield ppf =
    match p.kind with
    | Map { yield } -> Format.fprintf ppf "yield %a" Exp.pp yield
    | Reduce { yield; r } ->
      Format.fprintf ppf "yield %a  (combine: %a)" Exp.pp yield Exp.pp
        r.combine
    | Arg_min { yield } -> Format.fprintf ppf "argmin of %a" Exp.pp yield
    | Foreach -> Format.fprintf ppf ""
    | Filter { pred; yield } ->
      Format.fprintf ppf "if %a yield %a" Exp.pp pred Exp.pp yield
    | Group_by { key; value; num_keys } ->
      Format.fprintf ppf "key %a -> %a (keys: %a)" Exp.pp key Exp.pp value
        Ty.pp_extent num_keys
  in
  Format.fprintf ppf "@[<v 2>%s<%s> i%d in [0, %a) {@,%a%s%t@]@,}"
    (kind_name p.kind) p.label p.pid pp_psize p.size pp_stmts p.body
    (if p.body = [] then "" else "; ")
    yield

let rec pp_step ppf = function
  | Launch { bind; pat } ->
    (match bind with
     | Some b -> Format.fprintf ppf "@[<v 2>launch %s = %a@]" b pp_pattern pat
     | None -> Format.fprintf ppf "@[<v 2>launch %a@]" pp_pattern pat)
  | Host_loop { var; count; body } ->
    Format.fprintf ppf "@[<v 2>host for %s in [0, %a) {@,%a@]@,}" var
      Ty.pp_extent count
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_step)
      body
  | Swap (a, b) -> Format.fprintf ppf "swap %s <-> %s" a b
  | While_flag { flag; max_iter; body } ->
    Format.fprintf ppf "@[<v 2>host while %s[0] != 0 (max %d) {@,%a@]@,}" flag
      max_iter
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_step)
      body

let pp_prog ppf prog =
  Format.fprintf ppf "@[<v>program %s@," prog.pname;
  List.iter
    (fun b ->
      Format.fprintf ppf "buffer %s : %a[%a] %s@," b.bname Ty.pp_scalar b.elem
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Ty.pp_extent)
        b.dims
        (match b.bkind with
         | Input -> "(in)"
         | Output -> "(out)"
         | Temp -> "(tmp)"))
    prog.buffers;
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_step ppf prog.steps;
  Format.fprintf ppf "@]"
