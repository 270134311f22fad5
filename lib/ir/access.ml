type stride = Known of int | Unknown

type access = {
  abuf : string;
  aidxs : Exp.t list;
  alocal : bool;
  is_store : bool;
  strides : (int * stride) list;
  weight : float;
  branch_depth : int;
}

(* Execution-count factor assumed for sequential loops whose trip count is
   not a launch-time constant (data-dependent while loops, CSR row spans). *)
let default_seq_trip = 16.

let rec eval_int ~params ~env (e : Exp.t) =
  let both f a b =
    match eval_int ~params ~env a, eval_int ~params ~env b with
    | Some x, Some y -> f x y
    | _ -> None
  in
  match e with
  | Exp.Int n -> Some n
  | Exp.Param p -> List.assoc_opt p params
  | Exp.Var x -> (
    match List.assoc_opt x env with
    | Some (`E e') -> eval_int ~params ~env e'
    | Some `Opaque | None -> None)
  | Exp.Bin (Exp.Add, a, b) -> both (fun x y -> Some (x + y)) a b
  | Exp.Bin (Exp.Sub, a, b) -> both (fun x y -> Some (x - y)) a b
  | Exp.Bin (Exp.Mul, a, b) -> both (fun x y -> Some (x * y)) a b
  | Exp.Bin (Exp.Div, a, b) ->
    both (fun x y -> if y = 0 then None else Some (x / y)) a b
  | Exp.Bin (Exp.Mod, a, b) ->
    both (fun x y -> if y = 0 then None else Some (x mod y)) a b
  | Exp.Bin (Exp.Min, a, b) -> both (fun x y -> Some (min x y)) a b
  | Exp.Bin (Exp.Max, a, b) -> both (fun x y -> Some (max x y)) a b
  | Exp.Un (Exp.Neg, a) ->
    Option.map (fun x -> -x) (eval_int ~params ~env a)
  | _ -> None

let rec stride_of ~params ~env ~wrt (e : Exp.t) =
  let d x = stride_of ~params ~env ~wrt x in
  let zero_if_const parts =
    if List.for_all (fun x -> d x = Known 0) parts then Known 0 else Unknown
  in
  match e with
  | Exp.Int _ | Exp.Float _ | Exp.Bool _ | Exp.Param _ | Exp.Len _ -> Known 0
  | Exp.Idx q -> Known (if q = wrt then 1 else 0)
  | Exp.Var x -> (
    match List.assoc_opt x env with
    | Some (`E e') -> stride_of ~params ~env ~wrt e'
    | Some `Opaque | None -> Unknown)
  | Exp.Bin (Exp.Add, a, b) -> (
    match d a, d b with
    | Known x, Known y -> Known (x + y)
    | _ -> Unknown)
  | Exp.Bin (Exp.Sub, a, b) -> (
    match d a, d b with
    | Known x, Known y -> Known (x - y)
    | _ -> Unknown)
  | Exp.Bin (Exp.Mul, a, b) -> (
    match eval_int ~params ~env a, eval_int ~params ~env b with
    | Some ka, _ -> (
      match d b with Known y -> Known (ka * y) | Unknown -> Unknown)
    | _, Some kb -> (
      match d a with Known x -> Known (x * kb) | Unknown -> Unknown)
    | None, None -> zero_if_const [ a; b ])
  | Exp.Bin ((Exp.Div | Exp.Mod | Exp.Min | Exp.Max | Exp.And | Exp.Or), a, b)
    ->
    zero_if_const [ a; b ]
  | Exp.Un (Exp.Neg, a) -> (
    match d a with Known x -> Known (-x) | Unknown -> Unknown)
  | Exp.Un (_, a) -> zero_if_const [ a ]
  | Exp.Cmp (_, a, b) -> zero_if_const [ a; b ]
  | Exp.Select (c, a, b) -> zero_if_const [ c; a; b ]
  | Exp.Read (_, idxs) -> zero_if_const idxs

let linearize ~params (b : Pat.buffer) idxs =
  let dims = List.map (Ty.extent_value params) b.dims in
  if List.length idxs <> List.length dims then
    invalid_arg
      (Printf.sprintf "linearize: buffer %S has %d dims, %d indices given"
         b.bname (List.length dims) (List.length idxs));
  let pairs =
    match b.blayout with
    | Pat.Row_major -> List.combine idxs dims
    | Pat.Col_major -> List.rev (List.combine idxs dims)
  in
  (* after ordering, index i varies slowest-first: lin = ((e0*d1)+e1)*d2 ... *)
  match pairs with
  | [] -> Exp.Int 0
  | (e0, _) :: rest ->
    List.fold_left
      (fun acc (e, d) -> Exp.Bin (Exp.Add, Exp.Bin (Exp.Mul, acc, Exp.Int d), e))
      e0 rest

(* Collect all accesses of one top-level nest. *)
let collect ~params (prog : Pat.prog) (top : Pat.pattern) =
  let params =
    params @ List.filter (fun (k, _) -> not (List.mem_assoc k params))
               prog.defaults
  in
  let out = ref [] in
  let is_global name =
    List.exists (fun (b : Pat.buffer) -> String.equal b.bname name)
      prog.buffers
  in
  let emit ~env ~pids ~weight ~branch ~is_store name idxs =
    let alocal = not (is_global name) in
    let lin =
      if alocal then (
        match idxs with
        | [ e ] -> e
        | _ ->
          (* local arrays are one-dimensional (one per producing pattern) *)
          invalid_arg
            (Printf.sprintf "access: local array %S used with %d indices"
               name (List.length idxs)))
      else linearize ~params (Pat.find_buffer prog name) idxs
    in
    let strides =
      List.map
        (fun (pid, _) -> (pid, stride_of ~params ~env ~wrt:pid lin))
        pids
    in
    (* loop-invariant hoisting: an access whose index does not vary with the
       innermost enclosing pattern(s) executes once per iteration of the
       deepest pattern it does depend on (any real compiler keeps it in a
       register), so its weight must not be scaled by the invariant loops *)
    let rec hoist acc = function
      | (pid, size) :: rest ->
        (match List.assoc pid strides with
         | Known 0 -> hoist (acc *. size) rest
         | Known _ | Unknown -> acc)
      | [] -> acc
    in
    let weight = weight /. hoist 1. (List.rev pids) in
    out :=
      { abuf = name; aidxs = idxs; alocal; is_store; strides; weight;
        branch_depth = branch }
      :: !out
  in
  let rec exp ~env ~pids ~weight ~branch (e : Exp.t) =
    match e with
    | Exp.Read (name, idxs) ->
      emit ~env ~pids ~weight ~branch ~is_store:false name idxs;
      List.iter (exp ~env ~pids ~weight ~branch) idxs
    | Exp.Int _ | Exp.Float _ | Exp.Bool _ | Exp.Idx _ | Exp.Param _
    | Exp.Var _ | Exp.Len _ ->
      ()
    | Exp.Bin (_, a, b) | Exp.Cmp (_, a, b) ->
      exp ~env ~pids ~weight ~branch a;
      exp ~env ~pids ~weight ~branch b
    | Exp.Un (_, a) -> exp ~env ~pids ~weight ~branch a
    | Exp.Select (c, a, b) ->
      exp ~env ~pids ~weight ~branch c;
      exp ~env ~pids ~weight ~branch a;
      exp ~env ~pids ~weight ~branch b
  in
  let rec stmts ~env ~pids ~weight ~branch ss =
    List.fold_left
      (fun env s -> stmt ~env ~pids ~weight ~branch s)
      env ss
  and stmt ~env ~pids ~weight ~branch (s : Pat.stmt) =
    let e_ = exp ~env ~pids ~weight ~branch in
    match s with
    | Pat.Let (x, e) ->
      e_ e;
      (x, `E e) :: env
    | Pat.Assign (x, e) ->
      e_ e;
      (* the variable no longer has a single defining expression *)
      (x, `Opaque) :: env
    | Pat.Store (name, idxs, e) | Pat.Atomic_add (name, idxs, e) ->
      emit ~env ~pids ~weight ~branch ~is_store:true name idxs;
      List.iter e_ idxs;
      e_ e;
      env
    | Pat.Nested n ->
      pattern ~env ~pids ~weight ~branch n.pat;
      (match n.bind, n.pat.kind with
       | Some _, Pat.Map _ -> env (* local array, not a scalar binding *)
       | Some x, _ -> (x, `Opaque) :: env
       | None, _ -> env)
    | Pat.If (c, t, e) ->
      e_ c;
      ignore (stmts ~env ~pids ~weight:(weight *. 0.5) ~branch:(branch + 1)
                t);
      ignore (stmts ~env ~pids ~weight:(weight *. 0.5) ~branch:(branch + 1)
                e);
      env
    | Pat.For (x, lo, hi, body) ->
      e_ lo;
      e_ hi;
      let trip =
        match
          eval_int ~params ~env lo, eval_int ~params ~env hi
        with
        | Some l, Some h -> float_of_int (max 1 (h - l))
        | _ -> default_seq_trip
      in
      (* approximate the loop variable by its first value for strides *)
      ignore
        (stmts ~env:((x, `E lo) :: env) ~pids ~weight:(weight *. trip)
           ~branch body);
      env
    | Pat.While (c, body) ->
      e_ c;
      ignore
        (stmts ~env ~pids ~weight:(weight *. default_seq_trip) ~branch
           body);
      env
  and pattern ~env ~pids ~weight ~branch (p : Pat.pattern) =
    let size = float_of_int (Levels.pattern_size params p) in
    let weight = weight *. size in
    let pids = pids @ [ (p.pid, size) ] in
    let env = stmts ~env ~pids ~weight ~branch p.body in
    let e_ = exp ~env ~pids ~weight ~branch in
    (match p.kind with
     | Pat.Map { yield } | Pat.Arg_min { yield } -> e_ yield
     | Pat.Reduce { yield; _ } -> e_ yield
     | Pat.Foreach -> ()
     | Pat.Filter { pred; yield } ->
       e_ pred;
       e_ yield
     | Pat.Group_by { key; value; _ } ->
       e_ key;
       e_ value)
  in
  pattern ~env:[] ~pids:[] ~weight:1. ~branch:0 top;
  List.rev !out
