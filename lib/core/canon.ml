(* Canonical structural serialisation of nests and programs.

   The output string is a pre-order walk of the IR in which every
   source-level name is replaced by a number assigned at its binding (or
   first-use, for global buffers) occurrence:

   - pattern ids      -> P0, P1, ... in pre-order; index uses are x<k>
   - variables/locals -> v<k> at the binding site (Let, For, reducer
                         operands, nested binds, host-loop vars), carried
                         in a scoped environment so shadowing in one
                         program can never collide with non-shadowing in
                         another
   - global buffers   -> g<k> at first use, immediately followed by the
                         buffer's shape signature (element type,
                         parameter-resolved dims, layout, i/o/t kind) —
                         everything the access and fit analysis reads
   - parameters       -> their resolved integer value, tagged 'p' so a
                         parameter never collides with a literal (the
                         stride analysis may treat them differently)

   Unknown names (a program that slipped past validation) serialise with
   a '?' prefix and their literal spelling: that direction only loses
   cache hits, it cannot manufacture a wrong one. *)

open Ppat_ir

type state = {
  out : Buffer.t;
  params : (string * int) list;
  prog : Pat.prog;
  pids : (int, int) Hashtbl.t;
  gbufs : (string, string) Hashtbl.t;
  mutable vfresh : int;
  mutable gfresh : int;
  mutable pfresh : int;
}

let make prog params =
  {
    out = Buffer.create 512;
    params;
    prog;
    pids = Hashtbl.create 8;
    gbufs = Hashtbl.create 8;
    vfresh = 0;
    gfresh = 0;
    pfresh = 0;
  }

let add st s = Buffer.add_string st.out s

let fresh st =
  let tok = Printf.sprintf "v%d" st.vfresh in
  st.vfresh <- st.vfresh + 1;
  tok

let is_gbuf st name =
  List.exists (fun b -> b.Pat.bname = name) st.prog.Pat.buffers

let extent_str st env (e : Ty.extent) =
  match e with
  | Ty.Const n -> Printf.sprintf "c%d" n
  | Ty.Param p -> (
    match List.assoc_opt p env with
    | Some tok -> tok
    | None -> (
      match List.assoc_opt p st.params with
      | Some v -> Printf.sprintf "p%d" v
      | None -> "?" ^ p))

let scalar_str = function Ty.I32 -> "I" | Ty.F64 -> "F" | Ty.Bool -> "B"
let layout_str = function Pat.Row_major -> "R" | Pat.Col_major -> "C"
let bkind_str = function Pat.Input -> "i" | Pat.Output -> "o" | Pat.Temp -> "t"

(* first use of a global buffer also pins down its shape, inline *)
let gbuf_token st name =
  match Hashtbl.find_opt st.gbufs name with
  | Some tok -> tok
  | None ->
    let tok = Printf.sprintf "g%d" st.gfresh in
    st.gfresh <- st.gfresh + 1;
    Hashtbl.add st.gbufs name tok;
    let b = Pat.find_buffer st.prog name in
    add st
      (Printf.sprintf "[%s=%s:%s:%s:%s]" tok
         (scalar_str b.Pat.elem)
         (String.concat "x" (List.map (extent_str st []) b.Pat.dims))
         (layout_str b.Pat.blayout)
         (bkind_str b.Pat.bkind));
    tok

(* a Read/Store/Len name: pattern-local array first, then global buffer *)
let name_token st env name =
  match List.assoc_opt name env with
  | Some tok -> tok
  | None -> if is_gbuf st name then gbuf_token st name else "?" ^ name

let pid_ref st pid =
  match Hashtbl.find_opt st.pids pid with
  | Some k -> Printf.sprintf "x%d" k
  | None -> Printf.sprintf "?x%d" pid

let rec exp st env (e : Exp.t) =
  match e with
  | Exp.Int n -> add st (Printf.sprintf "i%d;" n)
  | Exp.Float f -> add st (Printf.sprintf "f%h;" f)
  | Exp.Bool b -> add st (if b then "bt;" else "bf;")
  | Exp.Idx pid -> add st (pid_ref st pid ^ ";")
  | Exp.Param p -> (
    match List.assoc_opt p env with
    | Some tok -> add st (tok ^ ";")
    | None -> (
      match List.assoc_opt p st.params with
      | Some v -> add st (Printf.sprintf "p%d;" v)
      | None -> add st ("?P" ^ p ^ ";")))
  | Exp.Var x -> (
    match List.assoc_opt x env with
    | Some tok -> add st (tok ^ ";")
    | None -> add st ("?v" ^ x ^ ";"))
  | Exp.Read (name, idxs) ->
    add st "R(";
    add st (name_token st env name);
    List.iter
      (fun i ->
        add st ",";
        exp st env i)
      idxs;
    add st ");"
  | Exp.Len name -> add st ("L(" ^ name_token st env name ^ ");")
  | Exp.Bin (op, a, b) ->
    add st (Exp.binop_name op ^ "(");
    exp st env a;
    exp st env b;
    add st ");"
  | Exp.Un (op, a) ->
    add st (Exp.unop_name op ^ "(");
    exp st env a;
    add st ");"
  | Exp.Cmp (op, a, b) ->
    add st (Exp.cmpop_name op ^ "(");
    exp st env a;
    exp st env b;
    add st ");"
  | Exp.Select (c, a, b) ->
    add st "sel(";
    exp st env c;
    exp st env a;
    exp st env b;
    add st ");"

let psize st env (s : Pat.psize) =
  match s with
  | Pat.Sconst n -> add st (Printf.sprintf "sc%d;" n)
  | Pat.Sparam p -> (
    (* keep the size-class tag: span hardness depends on when a size is
       known, not only on its value *)
    match List.assoc_opt p env with
    | Some tok -> add st ("sp" ^ tok ^ ";")
    | None -> (
      match List.assoc_opt p st.params with
      | Some v -> add st (Printf.sprintf "sp%d;" v)
      | None -> add st ("?sp" ^ p ^ ";")))
  | Pat.Sexp e -> (
    match Exp.eval_int ~params:st.params e with
    | Some v -> add st (Printf.sprintf "se%d;" v)
    | None ->
      add st "se(";
      exp st env e;
      add st ");")
  | Pat.Sdyn e ->
    add st "sd(";
    exp st env e;
    add st ");"

(* statements thread the environment left to right (a Let is visible to
   the rest of its block and to the pattern's yield); branch and loop
   bodies get child scopes that are dropped on exit *)
let rec stmts st env = function
  | [] -> env
  | s :: rest -> stmts st (stmt st env s) rest

and stmt st env (s : Pat.stmt) =
  match s with
  | Pat.Let (x, e) ->
    add st "let(";
    exp st env e;
    let tok = fresh st in
    add st (")" ^ tok ^ ";");
    (x, tok) :: env
  | Pat.Assign (x, e) ->
    add st
      ("set("
      ^ (match List.assoc_opt x env with Some t -> t | None -> "?v" ^ x)
      ^ ",");
    exp st env e;
    add st ");";
    env
  | Pat.Store (n, idxs, e) ->
    add st ("st(" ^ name_token st env n);
    List.iter
      (fun i ->
        add st ",";
        exp st env i)
      idxs;
    add st "=";
    exp st env e;
    add st ");";
    env
  | Pat.Atomic_add (n, idxs, e) ->
    add st ("at(" ^ name_token st env n);
    List.iter
      (fun i ->
        add st ",";
        exp st env i)
      idxs;
    add st "=";
    exp st env e;
    add st ");";
    env
  | Pat.Nested n -> nested st env n
  | Pat.If (c, t, e) ->
    add st "if(";
    exp st env c;
    add st "){";
    ignore (stmts st env t);
    add st "}{";
    ignore (stmts st env e);
    add st "};";
    env
  | Pat.For (v, lo, hi, body) ->
    add st "for(";
    exp st env lo;
    exp st env hi;
    let tok = fresh st in
    add st (tok ^ "){");
    ignore (stmts st ((v, tok) :: env) body);
    add st "};";
    env
  | Pat.While (c, body) ->
    add st "wh(";
    exp st env c;
    add st "){";
    ignore (stmts st env body);
    add st "};";
    env

and nested st env (n : Pat.nested) =
  add st "n(";
  let bind_local =
    match n.Pat.bind with
    | Some b when is_gbuf st b ->
      add st ("b=" ^ gbuf_token st b ^ ";");
      None
    | Some b ->
      add st "b=l;";
      Some b
    | None ->
      add st "b=_;";
      None
  in
  pattern st env n.Pat.pat;
  add st ");";
  match bind_local with
  | Some b -> (b, fresh st) :: env
  | None -> env

and pattern st env (p : Pat.pattern) =
  let k = st.pfresh in
  st.pfresh <- st.pfresh + 1;
  Hashtbl.replace st.pids p.Pat.pid k;
  add st (Printf.sprintf "P%d:" k);
  psize st env p.Pat.size;
  (match p.Pat.kind with
   | Pat.Map _ -> add st "map"
   | Pat.Reduce { r; _ } ->
     add st "red.init(";
     exp st env r.Pat.init;
     add st ")"
   | Pat.Arg_min _ -> add st "amin"
   | Pat.Foreach -> add st "fe"
   | Pat.Filter _ -> add st "flt"
   | Pat.Group_by { num_keys; _ } ->
     add st ("gby" ^ extent_str st env num_keys));
  add st "{";
  let env' = stmts st env p.Pat.body in
  (match p.Pat.kind with
   | Pat.Map { yield } | Pat.Arg_min { yield } ->
     add st "y(";
     exp st env' yield;
     add st ")"
   | Pat.Reduce { yield; r } ->
     add st "y(";
     exp st env' yield;
     add st ")";
     let ta = fresh st and tb = fresh st in
     add st (Printf.sprintf "c(%s,%s," ta tb);
     exp st ((r.Pat.a, ta) :: (r.Pat.b, tb) :: env') r.Pat.combine;
     add st ")"
   | Pat.Foreach -> ()
   | Pat.Filter { pred; yield } ->
     add st "p(";
     exp st env' pred;
     add st ")y(";
     exp st env' yield;
     add st ")"
   | Pat.Group_by { key; value; _ } ->
     add st "k(";
     exp st env' key;
     add st ")v(";
     exp st env' value;
     add st ")");
  add st "};"

let nest_repr ?(params = []) ?bind ?(shuffle = false) dev prog p =
  let st = make prog (Host.params_of prog params) in
  add st ("D:" ^ dev.Ppat_gpu.Device.dname ^ ";");
  (* the run's lowering bit is part of the key: a decision priced with
     shuffle synthesis on must not be served to a run with it off *)
  if shuffle then add st "O:shfl;";
  (match bind with
   | Some b when is_gbuf st b -> add st ("B:" ^ gbuf_token st b ^ ";")
   | Some b -> add st ("B:?" ^ b ^ ";")
   | None -> add st "B:_;");
  pattern st [] p;
  Buffer.contents st.out

let prog_repr ?(params = []) (prog : Pat.prog) =
  let st = make prog (Host.params_of prog params) in
  (* every buffer up front, in declaration order: the allocation plan —
     hence every staged base address — follows this order *)
  List.iter (fun b -> ignore (gbuf_token st b.Pat.bname)) prog.Pat.buffers;
  let rec step env (s : Pat.step) =
    match s with
    | Pat.Launch n -> ignore (nested st env n)
    | Pat.Host_loop { var; count; body } ->
      add st ("hl(" ^ extent_str st env count ^ ",");
      let tok = fresh st in
      add st (tok ^ "){");
      List.iter (step ((var, tok) :: env)) body;
      add st "};"
    | Pat.Swap (a, b) ->
      add st ("sw(" ^ gbuf_token st a ^ "," ^ gbuf_token st b ^ ");")
    | Pat.While_flag { flag; max_iter; body } ->
      add st (Printf.sprintf "wf(%s,%d){" (gbuf_token st flag) max_iter);
      List.iter (step env) body;
      add st "};"
  in
  List.iter (step []) prog.Pat.steps;
  Buffer.contents st.out

let digest s = Digest.to_hex (Digest.string s)

let nest_key ?params ?bind ?shuffle dev prog p =
  digest (nest_repr ?params ?bind ?shuffle dev prog p)

let prog_key ?params prog = digest (prog_repr ?params prog)
