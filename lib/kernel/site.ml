(* Static access-site numbering for Kir kernels.

   A *site* is one syntactic occurrence of a costed operation in a kernel
   body: a global or shared load/store, an atomic, or a divergible branch
   (if / for / while header). [annotate] walks the body once and assigns
   dense ids 0..n-1 in a canonical order, together with provenance (the
   buffer or shared-array name and the structural pattern path) for
   reports; both engines consume the same annotation, which is what makes
   their per-site counters comparable bit for bit.

   The load/store ids inside each statement are issued in *warp record
   order* — the order in which the execution engines append addresses to
   [Warp_access] slots while running that statement:

     - [Bin]/[Cmp] evaluate their right operand first (both engines
       replicate OCaml's right-to-left argument evaluation explicitly);
     - [Select] evaluates condition, then both arms, in that order;
     - a load's index subtree records before the load itself;
     - a store records its index loads, then its value loads, then the
       store.

   Because a statement's slot s receives the s-th record call of the lane,
   the s-th entry of the statement's site array names exactly the slot's
   originating access, for the lane-major and the node-major engine alike.
   Sites in different flush groups (loop headers, bodies, successive
   statements) only need stable ids, not any particular relative order. *)

type kind =
  | Load_global
  | Store_global
  | Load_shared
  | Store_shared
  | Atomic
  | Branch

let kind_name = function
  | Load_global -> "load_g"
  | Store_global -> "store_g"
  | Load_shared -> "load_s"
  | Store_shared -> "store_s"
  | Atomic -> "atomic"
  | Branch -> "branch"

type info = {
  skind : kind;
  sbuf : string;  (* buffer / shared-array name; "" for branches *)
  spath : string;  (* structural path, e.g. "body/for(i_rows)/if" *)
}

(* Per-statement site annotation, mirroring [Kir.stmt]. Each [int array]
   is the site-id sequence of one flush group, in record order. *)
type ann =
  | A_simple of int array  (* Set / Store_g / Store_s: one group *)
  | A_atomic of int array * int  (* operand-load group; the atomic itself *)
  | A_if of int array * int * ann list * ann list  (* cond; branch *)
  | A_for of int array * int array * int array * int * ann list
      (* lo; cond (hi); step; branch *)
  | A_while of int array * int * ann list  (* cond; branch *)
  | A_none  (* Sync / Malloc_event *)

let annotate (k : Kir.kernel) : info array * ann list =
  let rev_infos = ref [] in
  let n = ref 0 in
  let fresh skind sbuf path =
    let id = !n in
    incr n;
    rev_infos := { skind; sbuf; spath = String.concat "/" (List.rev path) } :: !rev_infos;
    id
  in
  (* collect the load sites of [e] in record order (see header comment);
     returns them reversed, newest first *)
  let rec exp_sites path acc (e : Kir.exp) =
    match e with
    | Kir.Int _ | Kir.Float _ | Kir.Bool _ | Kir.Reg _ | Kir.Tid _
    | Kir.Bid _ | Kir.Bdim _ | Kir.Gdim _ | Kir.Param _ ->
      acc
    | Kir.Bin (_, a, b) | Kir.Cmp (_, a, b) ->
      (* right operand records first *)
      let acc = exp_sites path acc b in
      exp_sites path acc a
    | Kir.Un (_, a) -> exp_sites path acc a
    | Kir.Select (c, a, b) ->
      let acc = exp_sites path acc c in
      let acc = exp_sites path acc a in
      exp_sites path acc b
    | Kir.Load_g (buf, i) ->
      let acc = exp_sites path acc i in
      fresh Load_global buf path :: acc
    | Kir.Load_s (s, i) ->
      let acc = exp_sites path acc i in
      fresh Load_shared s path :: acc
    | Kir.Shfl_down (v, l) | Kir.Shfl_idx (v, l) ->
      (* shuffles touch no memory and their operands are validated
         memory-free; recurse anyway so malformed kernels still number
         deterministically (value, then lane selector) *)
      let acc = exp_sites path acc v in
      exp_sites path acc l
  in
  let sites_of path es =
    let acc = List.fold_left (fun acc e -> exp_sites path acc e) [] es in
    Array.of_list (List.rev acc)
  in
  let reg_name r =
    if r < Array.length k.reg_names then k.reg_names.(r)
    else Printf.sprintf "r%d" r
  in
  let rec stmts path l = List.map (stmt path) l
  and stmt path (s : Kir.stmt) =
    match s with
    | Kir.Set (_, e) -> A_simple (sites_of path [ e ])
    | Kir.Store_g (buf, i, v) ->
      (* index loads, value loads, then the store itself *)
      let ops = sites_of path [ i; v ] in
      let st = fresh Store_global buf path in
      A_simple (Array.append ops [| st |])
    | Kir.Store_s (sn, i, v) ->
      let ops = sites_of path [ i; v ] in
      let st = fresh Store_shared sn path in
      A_simple (Array.append ops [| st |])
    | Kir.Atomic_add_g (buf, i, v) ->
      let ops = sites_of path [ i; v ] in
      A_atomic (ops, fresh Atomic buf path)
    | Kir.Atomic_add_ret { buf; idx; value; _ } ->
      let ops = sites_of path [ idx; value ] in
      A_atomic (ops, fresh Atomic buf path)
    | Kir.If (c, t, e) ->
      let cs = sites_of path [ c ] in
      let b = fresh Branch "" ("if" :: path) in
      A_if (cs, b, stmts ("if" :: path) t, stmts ("else" :: path) e)
    | Kir.For { reg; lo; hi; step; body } ->
      let seg = Printf.sprintf "for(%s)" (reg_name reg) in
      let los = sites_of path [ lo ] in
      let his = sites_of path [ hi ] in
      let sts = sites_of path [ step ] in
      let b = fresh Branch "" (seg :: path) in
      A_for (los, his, sts, b, stmts (seg :: path) body)
    | Kir.While (c, body) ->
      let cs = sites_of path [ c ] in
      let b = fresh Branch "" ("while" :: path) in
      A_while (cs, b, stmts ("while" :: path) body)
    | Kir.Sync | Kir.Malloc_event -> A_none
  in
  let anns = stmts [ "body" ] k.body in
  (Array.of_list (List.rev !rev_infos), anns)

let count k = Array.length (fst (annotate k))

let no_sites : int array = [||]
