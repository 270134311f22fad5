(* Resolve-then-run reference interpreter.

   [run] works in two phases. The resolve phase walks the program once and
   turns it into a tree of OCaml closures (the staging idiom of
   lib/kernel/compile.ml):

   - every buffer name becomes a slot of a per-run buffer table, with its
     strides precomputed from its extents and layout;
   - every [Let], [For] variable, reducer operand, pattern index, host-loop
     variable and parameter becomes a slot of an int or float frame, and
     every nested [Map] bound to a local array a slot of a local-array
     table, following the interpreter's lexical scoping: a [Let] shadows,
     [Assign] updates the nearest binding, and bindings made inside an
     [If], [For] or [While] body or a pattern body stay local to it;
   - every expression is classified as int, float or bool.

   The run phase then executes the closures over those frames. Int and bool
   values (bools as 0/1) travel as immediate ints; float expressions write
   their result into a slot of the float frame (destination passing), so
   no scalar is ever boxed and no name is looked up on the hot path.

   A fault found while resolving (an unbound name, a type confusion) does
   not fail the run: it compiles to a closure that raises when, and only
   when, the faulty code is executed. Every fault raises [Trap].

   Nothing is kept between runs: the frames and closures of one [run] call
   are private to it, so concurrent runs on different domains are safe. *)

open Ppat_ir

type counts = { ops : float; bytes : float }
type site = { name : string; index : int option }

exception Trap of site * string

let site_to_string s =
  match s.index with
  | None -> s.name
  | Some i -> Printf.sprintf "%s[%d]" s.name i

let () =
  Printexc.register_printer (function
    | Trap (s, msg) ->
      Some (Printf.sprintf "CPU oracle: %s: %s" (site_to_string s) msg)
    | _ -> None)

let err ?index name fmt =
  Format.kasprintf (fun msg -> Trap ({ name; index }, msg)) fmt

let trap ?index name fmt =
  Format.kasprintf (fun msg -> raise (Trap ({ name; index }, msg))) fmt

let max_while_iters = 100_000_000

(* ----- run-time state ----- *)

type st = {
  mutable iv : int array;
      (* int and bool scalars: parameters, pattern indices, variables *)
  mutable fv : float array;
      (* float scalars, float constants and expression results *)
  mutable il : int array array;  (* local int/bool arrays, by slot *)
  mutable fl : float array array;  (* local float arrays, by slot *)
  ib : int array array;
      (* storage of each global buffer, by buffer slot ([||] for float
         buffers); [Swap] exchanges two entries *)
  fb : float array array;
  mutable ops : int;
  mutable bytes : int;
}

(* ----- resolution ----- *)

type ty = Ti | Tf | Tb

let ty_name = function Ti -> "int" | Tf -> "float" | Tb -> "bool"

(* A resolved expression. [F (run, at)]: after [run ()] the value is in
   [st.fv.(at)]. [X e]: evaluating the expression always raises [e]. *)
type ce =
  | I of (unit -> int)
  | F of (unit -> unit) * int
  | B of (unit -> bool)
  | X of exn

let ty_of = function I _ -> Ti | F _ -> Tf | B _ -> Tb | X _ -> Ti

(* a global buffer: slot, element kind and precomputed strides *)
type gbuf = {
  gname : string;
  gslot : int;
  gfloat : bool;
  strides : int array;  (* one per dimension *)
}

type var = { slot : int; vty : ty }

type scope = {
  vars : (string * var) list;
  locals : (string * var) list;  (* slots of st.il / st.fl *)
  idxs : (int * int) list;  (* pattern id -> int slot *)
  params : (string * int) list;  (* parameter -> int slot *)
}

type rs = {
  st : st;
  globals : (string, gbuf) Hashtbl.t;
  mutable ni : int;
  mutable nf : int;
  mutable nil : int;
  mutable nfl : int;
  mutable fconsts : (int * float) list;
}

let nop () = ()

let new_i rs =
  let s = rs.ni in
  rs.ni <- s + 1;
  s

let new_f rs =
  let s = rs.nf in
  rs.nf <- s + 1;
  s

let new_slot rs = function Tf -> new_f rs | Ti | Tb -> new_i rs

let new_local rs = function
  | Tf ->
    let s = rs.nfl in
    rs.nfl <- s + 1;
    s
  | Ti | Tb ->
    let s = rs.nil in
    rs.nil <- s + 1;
    s

let fconst rs x =
  let s = new_f rs in
  rs.fconsts <- (s, x) :: rs.fconsts;
  s

let raises e () = raise e

(* a resolved expression of the given type that raises [e] *)
let failing ty e =
  match ty with
  | Ti -> I (raises e)
  | Tb -> B (raises e)
  | Tf -> F (raises e, 0)

let mismatch what want got =
  err what "expected %s, got %s" (ty_name want) (ty_name got)

(* int context: bools count as 0/1 *)
let to_int what = function
  | I f -> f
  | B f -> fun () -> if f () then 1 else 0
  | F _ -> raises (mismatch what Ti Tf)
  | X e -> raises e

(* bool context: ints are true when non-zero *)
let to_bool what = function
  | B f -> f
  | I f -> fun () -> f () <> 0
  | F _ -> raises (mismatch what Tb Tf)
  | X e -> raises e

let read_var st v =
  let s = v.slot in
  match v.vty with
  | Ti -> I (fun () -> st.iv.(s))
  | Tb -> B (fun () -> st.iv.(s) <> 0)
  | Tf -> F (nop, s)

(* store a value into a variable slot of type [ty]; ints and bools mix *)
let store st what ty s = function
  | F (r, a) when ty = Tf ->
    fun () ->
      r ();
      st.fv.(s) <- st.fv.(a)
  | I f when ty <> Tf -> fun () -> st.iv.(s) <- f ()
  | B f when ty <> Tf -> fun () -> st.iv.(s) <- (if f () then 1 else 0)
  | X e -> raises e
  | v -> raises (mismatch what ty (ty_of v))

let[@inline] tick st = st.ops <- st.ops + 1

let oob ~what name i a =
  trap ~index:i name "%s out of bounds (%d elements)" what (Array.length a)

(* linear index of a global access, from the buffer's own extents *)
let linear g (ix : (unit -> int) list) =
  let n = Array.length g.strides in
  if List.length ix <> n then
    Error
      (err g.gname "%d-dimensional buffer accessed with %d indices" n
         (List.length ix))
  else
    match ix, g.strides with
    | [ i0 ], _ -> Ok i0
    | [ i0; i1 ], [| s0; s1 |] ->
      Ok
        (if s1 = 1 then fun () ->
           let a = i0 () in
           (a * s0) + i1 ()
         else fun () ->
           let a = i0 () in
           a + (s1 * i1 ()))
    | _ ->
      let ix = Array.of_list ix and sd = g.strides in
      Ok
        (fun () ->
          let acc = ref 0 in
          for k = 0 to n - 1 do
            acc := !acc + (ix.(k) () * sd.(k))
          done;
          !acc)

let global rs name = Hashtbl.find_opt rs.globals name

(* a one-index write target: the pattern outputs of Map, Reduce, Arg_min,
   Filter and Group_by *)
let global1 rs name =
  match global rs name with
  | None -> Error (err name "write to unknown buffer")
  | Some g when Array.length g.strides <> 1 ->
    Error
      (err name "%d-dimensional buffer written as a pattern output"
         (Array.length g.strides))
  | Some g -> Ok g

let[@inline] put_f st g li x =
  st.bytes <- st.bytes + 8;
  let a = st.fb.(g.gslot) in
  if li < 0 || li >= Array.length a then oob ~what:"write" g.gname li a;
  Array.unsafe_set a li x

let[@inline] put_i st g li x =
  st.bytes <- st.bytes + 8;
  let a = st.ib.(g.gslot) in
  if li < 0 || li >= Array.length a then oob ~what:"write" g.gname li a;
  Array.unsafe_set a li x

(* write the value of [v] to [g] at [li ()], with the interpreter's
   typing: float buffers take floats, int and bool buffers ints or bools *)
let gwrite st g (li : unit -> int) v =
  match v, g.gfloat with
  | F (r, a), true ->
    fun () ->
      r ();
      put_f st g (li ()) st.fv.(a)
  | I f, false ->
    fun () ->
      let x = f () in
      put_i st g (li ()) x
  | B f, false ->
    fun () ->
      let x = if f () then 1 else 0 in
      put_i st g (li ()) x
  | X e, _ -> raises e
  | v, fl ->
    raises
      (err g.gname "write of %s into %s buffer" (ty_name (ty_of v))
         (if fl then "float" else "int"))

let src e = Exp.to_string e

(* A scratch column for a Filter or Group_by output, whose values are all
   computed before any is written: [alloc n] makes room for [n] rows,
   [save k] evaluates the value into row [k], [emit j k] writes row [k] to
   element [j] of [g]. A value that cannot be evaluated or written raises
   when the first row is saved. *)
type column = {
  alloc : int -> unit;
  save : int -> unit;
  emit : int -> int -> unit;
}

let column st g v =
  match v, g.gfloat with
  | F (r, s), true ->
    let rows = ref [||] in
    {
      alloc = (fun n -> rows := Array.make n 0.);
      save =
        (fun k ->
          r ();
          !rows.(k) <- st.fv.(s));
      emit = (fun j k -> put_f st g j !rows.(k));
    }
  | (I _ | B _), false ->
    let f = to_int g.gname v and rows = ref [||] in
    {
      alloc = (fun n -> rows := Array.make n 0);
      save = (fun k -> !rows.(k) <- f ());
      emit = (fun j k -> put_i st g j !rows.(k));
    }
  | v, fl ->
    let e =
      match v with
      | X e -> e
      | v ->
        err g.gname "write of %s into %s buffer" (ty_name (ty_of v))
          (if fl then "float" else "int")
    in
    { alloc = ignore; save = (fun _ -> raise e); emit = (fun _ _ -> ()) }

let rec cexp rs sc (e : Exp.t) : ce =
  let st = rs.st in
  match e with
  | Exp.Int n -> I (fun () -> n)
  | Exp.Float x -> F (nop, fconst rs x)
  | Exp.Bool b -> B (fun () -> b)
  | Exp.Idx pid -> (
    match List.assoc_opt pid sc.idxs with
    | Some s -> I (fun () -> st.iv.(s))
    | None -> X (err (Printf.sprintf "i%d" pid) "free pattern index"))
  | Exp.Param p -> (
    match List.assoc_opt p sc.params with
    | Some s -> I (fun () -> st.iv.(s))
    | None -> X (err p "unbound parameter"))
  | Exp.Var x -> (
    match List.assoc_opt x sc.vars with
    | Some v -> read_var st v
    | None -> X (err x "unbound variable"))
  | Exp.Len name -> (
    match List.assoc_opt name sc.locals with
    | Some { slot; vty = Tf } -> I (fun () -> Array.length st.fl.(slot))
    | Some { slot; vty = Ti | Tb } -> I (fun () -> Array.length st.il.(slot))
    | None -> X (err name "len of unknown local array"))
  | Exp.Read (name, idxs) -> read rs sc name (indices rs sc idxs)
  | Exp.Bin (op, a, b) -> bin rs e op (cexp rs sc a) (cexp rs sc b)
  | Exp.Un (op, a) -> un rs e op (cexp rs sc a)
  | Exp.Cmp (op, a, b) -> cmp rs e op (cexp rs sc a) (cexp rs sc b)
  | Exp.Select (c, a, b) ->
    select rs e (to_bool (src c) (cexp rs sc c)) (cexp rs sc a) (cexp rs sc b)

and indices rs sc idxs = List.map (fun i -> to_int (src i) (cexp rs sc i)) idxs

and read rs sc name ix =
  let st = rs.st in
  match List.assoc_opt name sc.locals, ix with
  | Some { slot; vty = Ti | Tb as ty }, [ i ] ->
    let get () =
      tick st;
      let i = i () in
      let a = st.il.(slot) in
      if i < 0 || i >= Array.length a then oob ~what:"local read" name i a;
      Array.unsafe_get a i
    in
    if ty = Ti then I get else B (fun () -> get () <> 0)
  | Some { slot; vty = Tf }, [ i ] ->
    let d = new_f rs in
    F
      ( (fun () ->
          tick st;
          let i = i () in
          let a = st.fl.(slot) in
          if i < 0 || i >= Array.length a then oob ~what:"local read" name i a;
          st.fv.(d) <- Array.unsafe_get a i),
        d )
  | Some _, ix -> X (err name "local array read with %d indices" (List.length ix))
  | None, ix -> (
    match global rs name with
    | None -> X (err name "read of unknown buffer")
    | Some g -> (
      match linear g ix with
      | Error e -> X e
      | Ok li when g.gfloat ->
        let d = new_f rs and slot = g.gslot in
        F
          ( (fun () ->
              tick st;
              let li = li () in
              st.bytes <- st.bytes + 8;
              let a = st.fb.(slot) in
              if li < 0 || li >= Array.length a then oob ~what:"read" name li a;
              st.fv.(d) <- Array.unsafe_get a li),
            d )
      | Ok li ->
        let slot = g.gslot in
        I
          (fun () ->
            tick st;
            let li = li () in
            st.bytes <- st.bytes + 8;
            let a = st.ib.(slot) in
            if li < 0 || li >= Array.length a then oob ~what:"read" name li a;
            Array.unsafe_get a li)))

(* one closure per operator and type keeps the arithmetic unboxed; the
   operands are evaluated left to right, as the tree-walker did *)
and bin rs e op a b =
  let st = rs.st in
  let open Exp in
  let zero what v = if v = 0 then trap (src e) "%s by zero" what in
  match a, b with
  | X x, _ | _, X x -> X x
  | I x, I y -> (
    match op with
    | Add -> I (fun () -> tick st; let u = x () in u + y ())
    | Sub -> I (fun () -> tick st; let u = x () in u - y ())
    | Mul -> I (fun () -> tick st; let u = x () in u * y ())
    | Div ->
      I (fun () -> tick st; let u = x () in let v = y () in zero "division" v; u / v)
    | Mod ->
      I (fun () -> tick st; let u = x () in let v = y () in zero "modulo" v; u mod v)
    | Min ->
      I (fun () -> tick st; let u = x () in let v = y () in if u <= v then u else v)
    | Max ->
      I (fun () -> tick st; let u = x () in let v = y () in if u >= v then u else v)
    | And | Or -> X (err (src e) "%s on int operands" (binop_name op)))
  | F (ra, sa), F (rb, sb) -> (
    let d = new_f rs in
    let f k = F (k, d) in
    match op with
    | Add -> f (fun () -> ra (); rb (); tick st; st.fv.(d) <- st.fv.(sa) +. st.fv.(sb))
    | Sub -> f (fun () -> ra (); rb (); tick st; st.fv.(d) <- st.fv.(sa) -. st.fv.(sb))
    | Mul -> f (fun () -> ra (); rb (); tick st; st.fv.(d) <- st.fv.(sa) *. st.fv.(sb))
    | Div -> f (fun () -> ra (); rb (); tick st; st.fv.(d) <- st.fv.(sa) /. st.fv.(sb))
    | Min ->
      f (fun () -> ra (); rb (); tick st; st.fv.(d) <- Float.min st.fv.(sa) st.fv.(sb))
    | Max ->
      f (fun () -> ra (); rb (); tick st; st.fv.(d) <- Float.max st.fv.(sa) st.fv.(sb))
    | Mod | And | Or -> X (err (src e) "%s on float operands" (binop_name op)))
  | B x, B y -> (
    (* both operands are evaluated: their ops count *)
    match op with
    | And -> B (fun () -> tick st; let u = x () in let v = y () in u && v)
    | Or -> B (fun () -> tick st; let u = x () in let v = y () in u || v)
    | _ -> X (err (src e) "%s on bool operands" (binop_name op)))
  | a, b ->
    X
      (err (src e) "%s on %s and %s" (binop_name op) (ty_name (ty_of a))
         (ty_name (ty_of b)))

and un rs e op a =
  let st = rs.st in
  let open Exp in
  let fl r k = let d = new_f rs in F ((fun () -> r (); tick st; k d), d) in
  match op, a with
  | _, X x -> X x
  | Neg, I x -> I (fun () -> tick st; -x ())
  | Abs, I x -> I (fun () -> tick st; abs (x ()))
  | Not, B x -> B (fun () -> tick st; not (x ()))
  | I2f, I x -> fl nop (fun d -> st.fv.(d) <- float_of_int (x ()))
  | F2i, F (r, s) -> I (fun () -> r (); tick st; int_of_float st.fv.(s))
  | Neg, F (r, s) -> fl r (fun d -> st.fv.(d) <- -.st.fv.(s))
  | Sqrt, F (r, s) -> fl r (fun d -> st.fv.(d) <- Float.sqrt st.fv.(s))
  | Exp_, F (r, s) -> fl r (fun d -> st.fv.(d) <- Float.exp st.fv.(s))
  | Log_, F (r, s) -> fl r (fun d -> st.fv.(d) <- Float.log st.fv.(s))
  | Abs, F (r, s) -> fl r (fun d -> st.fv.(d) <- Float.abs st.fv.(s))
  | op, a -> X (err (src e) "%s on %s" (unop_name op) (ty_name (ty_of a)))

(* [compare]'s order, NaN included, as the tree-walker used *)
and cmp rs e op a b =
  let st = rs.st in
  let test : int -> bool =
    match op with
    | Exp.Eq -> fun c -> c = 0
    | Exp.Ne -> fun c -> c <> 0
    | Exp.Lt -> fun c -> c < 0
    | Exp.Le -> fun c -> c <= 0
    | Exp.Gt -> fun c -> c > 0
    | Exp.Ge -> fun c -> c >= 0
  in
  match a, b with
  | X x, _ | _, X x -> X x
  | I x, I y -> B (fun () -> tick st; let u = x () in test (Int.compare u (y ())))
  | B x, B y -> B (fun () -> tick st; let u = x () in test (Bool.compare u (y ())))
  | F (ra, sa), F (rb, sb) ->
    B (fun () -> ra (); rb (); tick st; test (Float.compare st.fv.(sa) st.fv.(sb)))
  | a, b ->
    X (err (src e) "comparison of %s with %s" (ty_name (ty_of a)) (ty_name (ty_of b)))

and select rs e c a b =
  let st = rs.st in
  (* a branch that cannot be evaluated raises only when taken *)
  let a, b =
    match a, b with
    | X x, X y -> (failing Ti x, failing Ti y)
    | X x, b -> (failing (ty_of b) x, b)
    | a, X y -> (a, failing (ty_of a) y)
    | _ -> (a, b)
  in
  match a, b with
  | I x, I y -> I (fun () -> tick st; if c () then x () else y ())
  | B x, B y -> B (fun () -> tick st; if c () then x () else y ())
  | F (ra, sa), F (rb, sb) ->
    let d = new_f rs in
    F
      ( (fun () ->
          tick st;
          if c () then (ra (); st.fv.(d) <- st.fv.(sa))
          else (rb (); st.fv.(d) <- st.fv.(sb))),
        d )
  | a, b ->
    X (err (src e) "select between %s and %s" (ty_name (ty_of a)) (ty_name (ty_of b)))

let seq fs =
  match fs with
  | [] -> nop
  | [ f ] -> f
  | [ f; g ] -> fun () -> f (); g ()
  | fs ->
    let a = Array.of_list fs in
    fun () ->
      for k = 0 to Array.length a - 1 do
        a.(k) ()
      done

let extent rs sc = function
  | Ty.Const n -> fun () -> n
  | Ty.Param p -> (
    match List.assoc_opt p sc.params with
    | Some s -> fun () -> rs.st.iv.(s)
    | None -> raises (err p "unbound parameter"))

(* resolve a statement list; returns the scope it leaves behind, which the
   pattern's yield, predicate or key sees *)
let rec stmts rs sc l =
  let sc, rev =
    List.fold_left
      (fun (sc, acc) s ->
        let f, sc = stmt rs sc s in
        (sc, f :: acc))
      (sc, []) l
  in
  (seq (List.rev rev), sc)

and body rs sc l = fst (stmts rs sc l)

and stmt rs sc (s : Pat.stmt) =
  let st = rs.st in
  match s with
  | Pat.Let (x, e) ->
    let v = cexp rs sc e in
    let ty = ty_of v in
    let slot = new_slot rs ty in
    (store st x ty slot v, { sc with vars = (x, { slot; vty = ty }) :: sc.vars })
  | Pat.Assign (x, e) -> (
    match List.assoc_opt x sc.vars with
    | Some v -> (store st x v.vty v.slot (cexp rs sc e), sc)
    | None -> (raises (err x "assignment to unbound variable"), sc))
  | Pat.Store (name, idxs, e) ->
    let v = cexp rs sc e in
    (store_elem rs sc name (indices rs sc idxs) v, sc)
  | Pat.Atomic_add (name, idxs, e) ->
    let v = cexp rs sc e in
    (atomic_add rs sc name (indices rs sc idxs) v, sc)
  | Pat.Nested n -> nested rs sc n
  | Pat.If (c, t, e) ->
    let c = to_bool (src c) (cexp rs sc c) in
    let t = body rs sc t and e = body rs sc e in
    ((fun () -> if c () then t () else e ()), sc)
  | Pat.For (x, lo, hi, b) ->
    let lo = to_int (src lo) (cexp rs sc lo)
    and hi = to_int (src hi) (cexp rs sc hi) in
    let slot = new_i rs in
    let b = body rs { sc with vars = (x, { slot; vty = Ti }) :: sc.vars } b in
    ( (fun () ->
        let l = lo () in
        let h = hi () in
        for i = l to h - 1 do
          st.iv.(slot) <- i;
          b ()
        done),
      sc )
  | Pat.While (c, b) ->
    let what = src c in
    let c = to_bool what (cexp rs sc c) in
    let b = body rs sc b in
    ( (fun () ->
        let guard = ref 0 in
        while c () do
          b ();
          incr guard;
          if !guard > max_while_iters then
            trap what "while loop ran %d iterations" max_while_iters
        done),
      sc )

and store_elem rs sc name ix v =
  let st = rs.st in
  match List.assoc_opt name sc.locals, ix with
  | Some { slot; vty }, [ i ] -> (
    match vty, v with
    | Tf, F (r, s) ->
      fun () ->
        r ();
        let i = i () in
        let a = st.fl.(slot) in
        if i < 0 || i >= Array.length a then oob ~what:"local store" name i a;
        Array.unsafe_set a i st.fv.(s)
    | (Ti | Tb), (I _ | B _) ->
      let f = to_int name v in
      fun () ->
        let x = f () in
        let i = i () in
        let a = st.il.(slot) in
        if i < 0 || i >= Array.length a then oob ~what:"local store" name i a;
        Array.unsafe_set a i x
    | _, X e -> raises e
    | _ -> raises (mismatch name vty (ty_of v)))
  | Some _, ix ->
    raises (err name "local array written with %d indices" (List.length ix))
  | None, ix -> (
    match global rs name with
    | None -> raises (err name "write to unknown buffer")
    | Some g -> (
      match linear g ix with
      | Error e -> raises e
      | Ok li -> gwrite st g li v))

and atomic_add rs sc name ix v =
  let st = rs.st in
  match List.assoc_opt name sc.locals, ix with
  | Some { slot; vty }, [ i ] -> (
    match vty, v with
    | Tf, F (r, s) ->
      fun () ->
        r ();
        let i = i () in
        let a = st.fl.(slot) in
        if i < 0 || i >= Array.length a then oob ~what:"local atomic_add" name i a;
        Array.unsafe_set a i (Array.unsafe_get a i +. st.fv.(s))
    | Ti, I f ->
      fun () ->
        let x = f () in
        let i = i () in
        let a = st.il.(slot) in
        if i < 0 || i >= Array.length a then oob ~what:"local atomic_add" name i a;
        Array.unsafe_set a i (Array.unsafe_get a i + x)
    | _, X e -> raises e
    | _ ->
      raises
        (err name "atomic_add of %s into %s array" (ty_name (ty_of v))
           (ty_name vty)))
  | Some _, _ -> raises (err name "local atomic_add with %d indices" (List.length ix))
  | None, ix -> (
    match global rs name with
    | None -> raises (err name "atomic_add to unknown buffer")
    | Some g -> (
      match linear g ix, v with
      | Error e, _ | _, X e -> raises e
      | Ok li, F (r, s) when g.gfloat ->
        let slot = g.gslot in
        fun () ->
          r ();
          let li = li () in
          st.bytes <- st.bytes + 16;
          let a = st.fb.(slot) in
          if li < 0 || li >= Array.length a then oob ~what:"atomic_add" name li a;
          Array.unsafe_set a li (Array.unsafe_get a li +. st.fv.(s))
      | Ok li, I f when not g.gfloat ->
        let slot = g.gslot in
        fun () ->
          let x = f () in
          let li = li () in
          st.bytes <- st.bytes + 16;
          let a = st.ib.(slot) in
          if li < 0 || li >= Array.length a then oob ~what:"atomic_add" name li a;
          Array.unsafe_set a li (Array.unsafe_get a li + x)
      | Ok _, v ->
        raises
          (err name "atomic_add of %s into %s buffer" (ty_name (ty_of v))
             (if g.gfloat then "float" else "int"))))

and csize rs sc label = function
  | Pat.Sconst n -> fun () -> n
  | Pat.Sparam p -> (
    match List.assoc_opt p sc.params with
    | Some s -> fun () -> rs.st.iv.(s)
    | None -> raises (err p "unbound size parameter of pattern %s" label))
  | Pat.Sexp e | Pat.Sdyn e -> to_int (src e) (cexp rs sc e)

(* bind a pattern's scalar result: to element 0 of a global buffer, or as
   a variable of the enclosing scope *)
and bind_scalar rs sc name (run : unit -> unit) v =
  if Hashtbl.mem rs.globals name then
    match global1 rs name with
    | Error e -> (raises e, sc)
    | Ok g ->
      let w = gwrite rs.st g (fun () -> 0) (read_var rs.st v) in
      ( (fun () ->
          run ();
          w ()),
        sc )
  else (run, { sc with vars = (name, v) :: sc.vars })

and nested rs sc (n : Pat.nested) =
  let st = rs.st in
  let p = n.pat in
  let size = csize rs sc p.label p.size in
  let ix = new_i rs in
  let body, bsc = stmts rs { sc with idxs = (p.pid, ix) :: sc.idxs } p.body in
  match p.kind, n.bind with
  | Pat.Foreach, _ ->
    ( (fun () ->
        for i = 0 to size () - 1 do
          st.iv.(ix) <- i;
          body ()
        done),
      sc )
  | Pat.Map { yield }, Some name when Hashtbl.mem rs.globals name ->
    let w =
      match global1 rs name with
      | Ok g -> gwrite st g (fun () -> st.iv.(ix)) (cexp rs bsc yield)
      | Error e -> raises e
    in
    ( (fun () ->
        for i = 0 to size () - 1 do
          st.iv.(ix) <- i;
          body ();
          w ()
        done),
      sc )
  | Pat.Map { yield }, Some name ->
    let y = cexp rs bsc yield in
    let ty = ty_of y in
    let slot = new_local rs ty in
    let run =
      match y with
      | F (r, s) ->
        fun () ->
          let n = size () in
          let a = Array.make n 0. in
          for i = 0 to n - 1 do
            st.iv.(ix) <- i;
            body ();
            r ();
            a.(i) <- st.fv.(s)
          done;
          st.fl.(slot) <- a
      | I _ | B _ | X _ ->
        let f = to_int (src yield) y in
        fun () ->
          let n = size () in
          let a = Array.make n 0 in
          for i = 0 to n - 1 do
            st.iv.(ix) <- i;
            body ();
            a.(i) <- f ()
          done;
          st.il.(slot) <- a
    in
    (run, { sc with locals = (name, { slot; vty = ty }) :: sc.locals })
  | Pat.Reduce { yield; r }, Some name ->
    let init = cexp rs sc r.init in
    let ty = ty_of init in
    let y = cexp rs bsc yield in
    let acc = { slot = new_slot rs ty; vty = ty }
    and b = { slot = new_slot rs (ty_of y); vty = ty_of y } in
    let combine =
      cexp rs { sc with vars = (r.a, acc) :: (r.b, b) :: sc.vars } r.combine
    in
    let init = store st r.a ty acc.slot init
    and yv = store st r.b b.vty b.slot y
    and combine =
      match combine with
      | X e -> raises e
      | c when ty_of c <> ty -> raises (mismatch (src r.combine) ty (ty_of c))
      | c -> store st r.a ty acc.slot c
    in
    let run () =
      let n = size () in
      init ();
      for i = 0 to n - 1 do
        st.iv.(ix) <- i;
        body ();
        yv ();
        combine ()
      done
    in
    bind_scalar rs sc name run acc
  | Pat.Arg_min { yield }, Some name ->
    let res = { slot = new_i rs; vty = Ti } in
    (* int yields compare as floats *)
    let r, s =
      match cexp rs bsc yield with
      | F (r, s) -> (r, s)
      | I f ->
        let d = new_f rs in
        ((fun () -> st.fv.(d) <- float_of_int (f ())), d)
      | B _ -> (raises (err p.label "arg_min over booleans"), 0)
      | X e -> (raises e, 0)
    in
    let run () =
      let best = ref infinity and best_i = ref 0 in
      for i = 0 to size () - 1 do
        st.iv.(ix) <- i;
        body ();
        r ();
        let x = st.fv.(s) in
        if x < !best then begin
          best := x;
          best_i := i
        end
      done;
      st.iv.(res.slot) <- !best_i
    in
    bind_scalar rs sc name run res
  | Pat.Filter { pred; yield }, Some name ->
    let pred = to_bool (src pred) (cexp rs bsc pred) in
    let run =
      match global1 rs name, global1 rs (name ^ "_count") with
      | Error e, _ | _, Error e -> raises e
      | Ok _, Ok c when c.gfloat ->
        raises (err c.gname "int count into a float buffer")
      | Ok g, Ok c ->
        let col = column st g (cexp rs bsc yield) in
        fun () ->
          let n = size () in
          col.alloc n;
          let k = ref 0 in
          for i = 0 to n - 1 do
            st.iv.(ix) <- i;
            body ();
            if pred () then begin
              col.save !k;
              incr k
            end
          done;
          for j = 0 to !k - 1 do
            col.emit j j
          done;
          put_i st c 0 !k
    in
    (run, sc)
  | Pat.Group_by { key; value; num_keys }, Some name ->
    let nk = extent rs sc num_keys in
    let key = to_int (src key) (cexp rs bsc key) in
    let run =
      match
        ( global1 rs name,
          global1 rs (name ^ "_counts"),
          global1 rs (name ^ "_offsets") )
      with
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> raises e
      | Ok _, Ok gc, Ok go when gc.gfloat || go.gfloat ->
        raises (err name "group_by counts and offsets into a float buffer")
      | Ok g, Ok gc, Ok go ->
        let col = column st g (cexp rs bsc value) in
        (* a counting sort: counts, exclusive-scan offsets, then the values
           segment by segment, each segment in index order *)
        fun () ->
          let nk = nk () in
          if nk < 0 then trap p.label "negative key count %d" nk;
          let n = max 0 (size ()) in
          let keys = Array.make n 0 in
          col.alloc n;
          for i = 0 to n - 1 do
            st.iv.(ix) <- i;
            body ();
            let k = key () in
            if k < 0 || k >= nk then
              trap ~index:k p.label "group key out of range [0,%d)" nk;
            keys.(i) <- k;
            col.save i
          done;
          let next = Array.make nk 0 in
          Array.iter (fun k -> next.(k) <- next.(k) + 1) keys;
          let off = ref 0 in
          for k = 0 to nk - 1 do
            let c = next.(k) in
            put_i st gc k c;
            put_i st go k !off;
            next.(k) <- !off;
            off := !off + c
          done;
          for i = 0 to n - 1 do
            let k = keys.(i) in
            col.emit next.(k) i;
            next.(k) <- next.(k) + 1
          done
    in
    (run, sc)
  | (Pat.Map _ | Pat.Reduce _ | Pat.Arg_min _ | Pat.Filter _ | Pat.Group_by _), None ->
    (raises (err p.label "pattern produces a value but has no binding"), sc)

let rec step rs sc (s : Pat.step) =
  let st = rs.st in
  match s with
  | Pat.Launch n -> fst (nested rs sc n)
  | Pat.Host_loop { var; count; body } ->
    let count = extent rs sc count in
    let slot = new_i rs in
    let b = steps rs { sc with params = (var, slot) :: sc.params } body in
    fun () ->
      for i = 0 to count () - 1 do
        st.iv.(slot) <- i;
        b ()
      done
  | Pat.Swap (a, b) -> (
    match global rs a, global rs b with
    | None, _ -> raises (err a "swap of unknown buffer")
    | _, None -> raises (err b "swap of unknown buffer")
    | Some ga, Some gb when ga.gfloat <> gb.gfloat ->
      raises (err a "swap of a float and an int buffer (with %s)" b)
    | Some ga, Some gb ->
      let x = ga.gslot and y = gb.gslot in
      fun () ->
        let t = st.fb.(x) in
        st.fb.(x) <- st.fb.(y);
        st.fb.(y) <- t;
        let t = st.ib.(x) in
        st.ib.(x) <- st.ib.(y);
        st.ib.(y) <- t)
  | Pat.While_flag { flag; max_iter; body } -> (
    match global rs flag with
    | None -> raises (err flag "while_flag on unknown buffer")
    | Some g ->
      let b = steps rs sc body and slot = g.gslot in
      let set0 () =
        if g.gfloat then begin
          let a = st.fb.(slot) in
          if Array.length a = 0 then oob ~what:"flag clear" flag 0 a;
          a.(0) <- 0.
        end
        else begin
          let a = st.ib.(slot) in
          if Array.length a = 0 then oob ~what:"flag clear" flag 0 a;
          a.(0) <- 0
        end
      and raised () =
        if g.gfloat then st.fb.(slot).(0) <> 0. else st.ib.(slot).(0) <> 0
      in
      fun () ->
        let continue_ = ref true and iters = ref 0 in
        while !continue_ && !iters < max_iter do
          set0 ();
          b ();
          continue_ := raised ();
          incr iters
        done)

and steps rs sc l = seq (List.map (step rs sc) l)

(* faults of the inputs themselves, named before anything runs *)
let check_inputs (prog : Pat.prog) params data =
  List.iter
    (fun (b : Pat.buffer) ->
      List.iter
        (function
          | Ty.Param p when not (List.mem_assoc p params) ->
            trap b.bname "extent parameter %S is unbound" p
          | _ -> ())
        b.dims;
      let n = Host.buffer_elems params b in
      match List.assoc_opt b.bname data, b.elem with
      | Some (Host.F a), Ty.F64 when Array.length a <> n ->
        trap b.bname "input has %d elements, the buffer %d" (Array.length a) n
      | Some (Host.I a), (Ty.I32 | Ty.Bool) when Array.length a <> n ->
        trap b.bname "input has %d elements, the buffer %d" (Array.length a) n
      | Some (Host.F _), Ty.F64 | Some (Host.I _), (Ty.I32 | Ty.Bool) -> ()
      | Some (Host.F _), _ -> trap b.bname "float input for an int buffer"
      | Some (Host.I _), _ -> trap b.bname "int input for a float buffer"
      | None, _ -> ())
    prog.buffers

let strides (b : Pat.buffer) dims =
  let n = Array.length dims in
  let s = Array.make n 1 in
  (match b.blayout with
   | Pat.Row_major ->
     for k = n - 2 downto 0 do
       s.(k) <- s.(k + 1) * dims.(k + 1)
     done
   | Pat.Col_major ->
     for k = 1 to n - 1 do
       s.(k) <- s.(k - 1) * dims.(k - 1)
     done);
  s

let run ?(params = []) (prog : Pat.prog) (data : Host.data) =
  let params = Host.params_of prog params in
  check_inputs prog params data;
  let bufs = Array.of_list (Host.alloc_all prog params data) in
  let st =
    {
      iv = [||];
      fv = [||];
      il = [||];
      fl = [||];
      ib = Array.map (function _, Host.I a -> a | _, Host.F _ -> [||]) bufs;
      fb = Array.map (function _, Host.F a -> a | _, Host.I _ -> [||]) bufs;
      ops = 0;
      bytes = 0;
    }
  in
  let rs =
    { st; globals = Hashtbl.create 16; ni = 0; nf = 0; nil = 0; nfl = 0;
      fconsts = [] }
  in
  List.iteri
    (fun k (b : Pat.buffer) ->
      let dims =
        Array.of_list (List.map (Ty.extent_value params) b.dims)
      in
      Hashtbl.replace rs.globals b.bname
        { gname = b.bname; gslot = k; gfloat = b.elem = Ty.F64;
          strides = strides b dims })
    prog.buffers;
  let pslots = List.map (fun (p, v) -> (p, new_i rs, v)) params in
  let sc =
    { vars = []; locals = []; idxs = [];
      params = List.map (fun (p, s, _) -> (p, s)) pslots }
  in
  let main = steps rs sc prog.steps in
  st.iv <- Array.make rs.ni 0;
  st.fv <- Array.make rs.nf 0.;
  st.il <- Array.make rs.nil [||];
  st.fl <- Array.make rs.nfl [||];
  List.iter (fun (_, s, v) -> st.iv.(s) <- v) pslots;
  List.iter (fun (s, x) -> st.fv.(s) <- x) rs.fconsts;
  main ();
  let out =
    List.map
      (fun (b : Pat.buffer) ->
        let g = Hashtbl.find rs.globals b.bname in
        ( b.bname,
          if g.gfloat then Host.F st.fb.(g.gslot) else Host.I st.ib.(g.gslot) ))
      prog.buffers
  in
  (out, { ops = float_of_int st.ops; bytes = float_of_int st.bytes })
