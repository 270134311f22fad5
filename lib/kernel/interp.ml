open Ppat_gpu

exception Trap = Simt_error.Trap

let trap fmt = Simt_error.trap fmt

let max_loop_iters = 1 lsl 24

(* ----- values ----- *)

type v = VU | VI of int | VF of float | VB of bool

let v_name = function
  | VU -> "undef"
  | VI _ -> "int"
  | VF _ -> "float"
  | VB _ -> "bool"

let as_int = function
  | VI n -> n
  | VB b -> if b then 1 else 0
  | v -> trap "expected an integer, got %s" (v_name v)

let as_bool = function
  | VB b -> b
  | VI n -> n <> 0
  | v -> trap "expected a boolean, got %s" (v_name v)

let eval_bin op a b =
  let open Ppat_ir.Exp in
  match op, a, b with
  | Add, VI x, VI y -> VI (x + y)
  | Add, VF x, VF y -> VF (x +. y)
  | Sub, VI x, VI y -> VI (x - y)
  | Sub, VF x, VF y -> VF (x -. y)
  | Mul, VI x, VI y -> VI (x * y)
  | Mul, VF x, VF y -> VF (x *. y)
  | Div, VI x, VI y -> if y = 0 then trap "division by zero" else VI (x / y)
  | Div, VF x, VF y -> VF (x /. y)
  | Mod, VI x, VI y -> if y = 0 then trap "modulo by zero" else VI (x mod y)
  | Min, VI x, VI y -> VI (min x y)
  | Min, VF x, VF y -> VF (Float.min x y)
  | Max, VI x, VI y -> VI (max x y)
  | Max, VF x, VF y -> VF (Float.max x y)
  | And, VB x, VB y -> VB (x && y)
  | Or, VB x, VB y -> VB (x || y)
  | (Add | Sub | Mul | Div | Mod | Min | Max | And | Or), x, y ->
    trap "binop %s applied to %s and %s" (binop_name op) (v_name x) (v_name y)

let eval_un op a =
  let open Ppat_ir.Exp in
  match op, a with
  | Neg, VI x -> VI (-x)
  | Neg, VF x -> VF (-.x)
  | Not, VB x -> VB (not x)
  | Sqrt, VF x -> VF (Float.sqrt x)
  | Exp_, VF x -> VF (Float.exp x)
  | Log_, VF x -> VF (Float.log x)
  | Abs, VF x -> VF (Float.abs x)
  | Abs, VI x -> VI (abs x)
  | I2f, VI x -> VF (float_of_int x)
  | F2i, VF x -> VI (int_of_float x)
  | (Neg | Not | Sqrt | Exp_ | Log_ | Abs | I2f | F2i), x ->
    trap "unop %s applied to %s" (unop_name op) (v_name x)

let eval_cmp op a b =
  let open Ppat_ir.Exp in
  let c =
    match a, b with
    | VI x, VI y -> compare x y
    | VF x, VF y -> compare x y
    | VB x, VB y -> compare x y
    | x, y -> trap "comparison of %s and %s" (v_name x) (v_name y)
  in
  VB
    (match op with
     | Eq -> c = 0
     | Ne -> c <> 0
     | Lt -> c < 0
     | Le -> c <= 0
     | Gt -> c > 0
     | Ge -> c >= 0)

(* ----- buffers ----- *)

let read_buf (e : Memory.entry) name idx =
  match e.data with
  | Ppat_ir.Host.F a ->
    if idx < 0 || idx >= Array.length a then
      trap "load out of bounds: %s[%d] (len %d)" name idx (Array.length a)
    else VF a.(idx)
  | Ppat_ir.Host.I a ->
    if idx < 0 || idx >= Array.length a then
      trap "load out of bounds: %s[%d] (len %d)" name idx (Array.length a)
    else VI a.(idx)

let write_buf (e : Memory.entry) name idx v =
  match e.data, v with
  | Ppat_ir.Host.F a, VF x ->
    if idx < 0 || idx >= Array.length a then
      trap "store out of bounds: %s[%d] (len %d)" name idx (Array.length a)
    else a.(idx) <- x
  | Ppat_ir.Host.I a, (VI _ | VB _) ->
    if idx < 0 || idx >= Array.length a then
      trap "store out of bounds: %s[%d] (len %d)" name idx (Array.length a)
    else a.(idx) <- as_int v
  | Ppat_ir.Host.F _, w -> trap "store of %s into float buffer %s" (v_name w) name
  | Ppat_ir.Host.I _, w -> trap "store of %s into int buffer %s" (v_name w) name

type sarr = SF of float array | SI of int array

let read_smem name sa idx =
  match sa with
  | SF a ->
    if idx < 0 || idx >= Array.length a then
      trap "shared load out of bounds: %s[%d]" name idx
    else VF a.(idx)
  | SI a ->
    if idx < 0 || idx >= Array.length a then
      trap "shared load out of bounds: %s[%d]" name idx
    else VI a.(idx)

let write_smem name sa idx v =
  match sa, v with
  | SF a, VF x ->
    if idx < 0 || idx >= Array.length a then
      trap "shared store out of bounds: %s[%d]" name idx
    else a.(idx) <- x
  | SI a, (VI _ | VB _) ->
    if idx < 0 || idx >= Array.length a then
      trap "shared store out of bounds: %s[%d]" name idx
    else a.(idx) <- as_int v
  | SF _, w | SI _, w -> trap "shared store of %s into %s" (v_name w) name

(* ----- sync effect ----- *)

type _ Effect.t += Sync_eff : unit Effect.t

(* ----- the interpreter ----- *)

(* the launch checks every engine and the staged path apply before
   simulating *)
let validate (dev : Device.t) (l : Kir.launch) =
  let k = l.kernel in
  let bx, by, bz = l.block in
  let gx, gy, gz = l.grid in
  let tpb = bx * by * bz in
  if tpb <= 0 || gx <= 0 || gy <= 0 || gz <= 0 then
    trap "kernel %s: empty launch %dx%dx%d / %dx%dx%d" k.kname gx gy gz bx by
      bz;
  if tpb > dev.max_threads_per_block then
    trap "kernel %s: block of %d threads exceeds device limit %d" k.kname tpb
      dev.max_threads_per_block

let run_reference ?(jobs = 1) ?attr (dev : Device.t) (mem : Memory.t)
    (l : Kir.launch) : Stats.t =
  validate dev l;
  let k = l.kernel in
  (* one canonical site numbering per launch; the compiled engine derives
     the same ids from the same pass, which is what makes the two engines'
     per-site matrices bit-identical *)
  let _, anns = Site.annotate k in
  let ws = dev.warp_size in
  let bx, by, bz = l.block in
  let gx, gy, gz = l.grid in
  let tpb = bx * by * bz in
  let param name =
    match List.assoc_opt name l.kparams with
    | Some v -> v
    | None -> trap "kernel %s: unbound parameter %S" k.kname name
  in
  let warps_per_block = (tpb + ws - 1) / ws in

  (* shared memory per block *)
  let make_smem () =
    List.map
      (fun (d : Kir.smem_decl) ->
        ( d.sname,
          match d.selem with
          | Ppat_ir.Ty.F64 -> SF (Array.make d.selems 0.)
          | Ppat_ir.Ty.I32 | Ppat_ir.Ty.Bool -> SI (Array.make d.selems 0) ))
      k.smem
  in

  (* execute one block against the given stats record and warp-access
     scratch. The serial path threads a single [Direct]-sinked scratch
     through every block; each parallel worker brings its own stats plus a
     [Log]-sinked scratch so no cross-domain state is shared. The
     per-warp memory-access scratch holds one slot per memory instruction
     in the currently executing warp statement; lanes append their byte
     addresses (global) or word indices (shared), and the end of the group
     prices every slot. Shared with the compiled engine, which is what
     keeps the two engines' statistics bit-identical. *)
  let exec_block (stats : Stats.t) (acc : Warp_access.t) bid =
    let record kind addr =
      match kind with
      | `G -> Warp_access.record_global acc addr
      | `S -> Warp_access.record_shared acc addr
    in
    let count_inst () = stats.warp_insts <- stats.warp_insts +. 1. in
    (* per-warp execution *)
    let exec_warp ~smem ~lane0 =
    let regs = Array.init ws (fun _ -> Array.make k.nregs VU) in
    let exists = Array.init ws (fun lane -> lane0 + lane < tpb) in
    let n_exist = Array.fold_left (fun n e -> if e then n + 1 else n) 0 exists in
    let tid lane =
      let t = lane0 + lane in
      (t mod bx, t / bx mod by, t / (bx * by))
    in
    let smem_of name =
      match List.assoc_opt name smem with
      | Some sa -> sa
      | None -> trap "kernel %s: undeclared shared array %S" k.kname name
    in
    (* the active mask of the warp statement currently executing, armed by
       [group]; warp shuffles/votes consult it to enforce convergence *)
    let cur_mask = ref exists in
    let require_converged what =
      if not (Array.for_all2 (fun m e -> m = e) !cur_mask exists) then
        trap "kernel %s: %s under divergent control flow" k.kname what
    in
    let rec eval lane counting (e : Kir.exp) : v =
      let bin_ct () = if counting then count_inst () in
      match e with
      | Kir.Int n -> VI n
      | Kir.Float x -> VF x
      | Kir.Bool b -> VB b
      | Kir.Reg r ->
        let v = regs.(lane).(r) in
        if v = VU then
          trap "kernel %s: read of undefined register %s" k.kname
            k.reg_names.(r)
        else v
      | Kir.Tid d ->
        let x, y, z = tid lane in
        VI (match d with Kir.X -> x | Kir.Y -> y | Kir.Z -> z)
      | Kir.Bid d ->
        let x, y, z = bid in
        VI (match d with Kir.X -> x | Kir.Y -> y | Kir.Z -> z)
      | Kir.Bdim d ->
        VI (match d with Kir.X -> bx | Kir.Y -> by | Kir.Z -> bz)
      | Kir.Gdim d ->
        VI (match d with Kir.X -> gx | Kir.Y -> gy | Kir.Z -> gz)
      | Kir.Param p -> VI (param p)
      | Kir.Bin (op, a, b) ->
        bin_ct ();
        eval_bin op (eval lane counting a) (eval lane counting b)
      | Kir.Un (op, a) ->
        bin_ct ();
        eval_un op (eval lane counting a)
      | Kir.Cmp (op, a, b) ->
        bin_ct ();
        eval_cmp op (eval lane counting a) (eval lane counting b)
      | Kir.Select (c, a, b) ->
        bin_ct ();
        let cv = as_bool (eval lane counting c) in
        let av = eval lane counting a in
        let bv = eval lane counting b in
        if cv then av else bv
      | Kir.Load_g (name, i) ->
        bin_ct ();
        let idx = as_int (eval lane counting i) in
        let entry = Memory.find mem name in
        record `G (Memory.addr entry idx);
        read_buf entry name idx
      | Kir.Load_s (name, i) ->
        bin_ct ();
        let idx = as_int (eval lane counting i) in
        let sa = smem_of name in
        (* banks are tracked at element granularity: Kepler's 8-byte bank
           mode makes consecutive f64 accesses conflict-free, and 4-byte
           ints bank the same way *)
        record `S idx;
        read_smem name sa idx
      | Kir.Shfl_down (v, l) -> shfl lane counting v l (fun lane d -> lane + d)
      | Kir.Shfl_xor (v, l) -> shfl lane counting v l (fun lane m -> lane lxor m)
      | Kir.Shfl_idx (v, l) -> shfl lane counting v l (fun _ src -> src)
      | Kir.Ballot p ->
        vote lane counting p;
        let m = ref 0 in
        for l = 0 to ws - 1 do
          if exists.(l) && as_bool (eval l false p) then m := !m lor (1 lsl l)
        done;
        VI !m
      | Kir.Any p ->
        vote lane counting p;
        let r = ref false in
        for l = 0 to ws - 1 do
          if exists.(l) && as_bool (eval l false p) then r := true
        done;
        VB !r
      | Kir.All p ->
        vote lane counting p;
        let r = ref true in
        for l = 0 to ws - 1 do
          if exists.(l) && not (as_bool (eval l false p)) then r := false
        done;
        VB !r
    (* a shuffle is one warp instruction exchanging registers: no memory
       slots, no bank conflicts, no barrier. The value operand is
       evaluated at the calling lane first (counting its nodes once and
       providing the own-value fallback), then re-evaluated at the source
       lane without counting — operands are validated pure, so the two
       evaluations cannot disagree on side effects. *)
    and shfl lane counting v l src_of =
      require_converged "warp shuffle";
      if counting then begin
        count_inst ();
        stats.shuffles <- stats.shuffles +. 1.
      end;
      let own = eval lane counting v in
      let sel = as_int (eval lane counting l) in
      let src = src_of lane sel in
      if src >= 0 && src < ws && exists.(src) then eval src false v else own
    and vote lane counting p =
      require_converged "warp vote";
      if counting then begin
        count_inst ();
        stats.shuffles <- stats.shuffles +. 1.;
        (* count the predicate's nodes exactly once; the cross-lane fold
           below re-evaluates it per lane without counting *)
        ignore (eval lane counting p)
      end
    in
    (* run [f] per active lane as one warp instruction group whose memory
       slots belong to [sites] (slot s -> sites.(s), see {!Site}) *)
    let group sites mask f =
      cur_mask := mask;
      Warp_access.set_sites acc sites;
      let first = ref true in
      for lane = 0 to ws - 1 do
        if mask.(lane) then begin
          Warp_access.begin_lane acc;
          f lane !first;
          first := false
        end
      done;
      Warp_access.flush acc
    in
    let any mask = Array.exists (fun x -> x) mask in
    let ann_mismatch () =
      trap "kernel %s: internal error: site annotation shape mismatch"
        k.kname
    in
    let rec exec mask (stmts : Kir.stmt list) (anns : Site.ann list) =
      List.iter2 (stmt mask) stmts anns
    and stmt mask (s : Kir.stmt) (a : Site.ann) =
      match s, a with
      | Kir.Set (r, e), Site.A_simple sites ->
        group sites mask (fun lane counting ->
            regs.(lane).(r) <- eval lane counting e)
      | Kir.Store_g (name, i, e), Site.A_simple sites ->
        let entry = Memory.find mem name in
        group sites mask (fun lane counting ->
            if counting then count_inst ();
            let idx = as_int (eval lane counting i) in
            let v = eval lane counting e in
            record `G (Memory.addr entry idx);
            write_buf entry name idx v)
      | Kir.Store_s (name, i, e), Site.A_simple sites ->
        group sites mask (fun lane counting ->
            if counting then count_inst ();
            let idx = as_int (eval lane counting i) in
            let v = eval lane counting e in
            let sa = smem_of name in
            record `S idx;
            write_smem name sa idx v)
      | Kir.Atomic_add_g (name, i, e), Site.A_atomic (ops, asite) ->
        let entry = Memory.find mem name in
        Warp_access.atomic_begin acc;
        group ops mask (fun lane counting ->
            if counting then count_inst ();
            let idx = as_int (eval lane counting i) in
            let v = eval lane counting e in
            Warp_access.atomic_record acc idx;
            (match read_buf entry name idx, v with
             | VF old, VF x -> write_buf entry name idx (VF (old +. x))
             | VI old, (VI _ | VB _) ->
               write_buf entry name idx (VI (old + as_int v))
             | a, b ->
               trap "atomicAdd type mismatch on %s: %s += %s" name (v_name a)
                 (v_name b)));
        Warp_access.atomic_commit acc asite entry
      | Kir.Atomic_add_ret { reg; buf; idx; value }, Site.A_atomic (ops, asite)
        ->
        let entry = Memory.find mem buf in
        Warp_access.atomic_begin acc;
        group ops mask (fun lane counting ->
            if counting then count_inst ();
            let i = as_int (eval lane counting idx) in
            let v = eval lane counting value in
            Warp_access.atomic_record acc i;
            let old = read_buf entry buf i in
            regs.(lane).(reg) <- old;
            match old, v with
            | VF o, VF x -> write_buf entry buf i (VF (o +. x))
            | VI o, (VI _ | VB _) ->
              write_buf entry buf i (VI (o + as_int v))
            | a, b ->
              trap "atomicAdd type mismatch on %s: %s += %s" buf (v_name a)
                (v_name b));
        Warp_access.atomic_commit acc asite entry
      | Kir.If (c, t, e), Site.A_if (csites, bsite, ta, ea) ->
        let taken = Array.make ws false in
        let fallthrough = Array.make ws false in
        group csites mask (fun lane counting ->
            if as_bool (eval lane counting c) then taken.(lane) <- true
            else fallthrough.(lane) <- true);
        let bt = any taken and bf = any fallthrough in
        if bt && bf && (t <> [] || e <> []) then
          Warp_access.divergent acc bsite;
        if bt then exec taken t ta;
        if bf && e <> [] then exec fallthrough e ea
      | Kir.For { reg; lo; hi; step; body }, Site.A_for (los, his, sts, bsite, ba)
        ->
        group los mask (fun lane counting ->
            regs.(lane).(reg) <- eval lane counting lo);
        let active = Array.copy mask in
        let iters = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          let next = Array.make ws false in
          group his active (fun lane counting ->
              let cond =
                eval_cmp Ppat_ir.Exp.Lt regs.(lane).(reg)
                  (eval lane counting hi)
              in
              if counting then count_inst ();
              if as_bool cond then next.(lane) <- true);
          if not (any next) then continue_ := false
          else begin
            if Array.exists2 (fun a n -> a && not n) active next then
              Warp_access.divergent acc bsite;
            Array.blit next 0 active 0 ws;
            exec active body ba;
            group sts active (fun lane counting ->
                let s = eval lane counting step in
                if counting then count_inst ();
                regs.(lane).(reg) <- eval_bin Ppat_ir.Exp.Add regs.(lane).(reg) s);
            incr iters;
            if !iters > max_loop_iters then
              trap "kernel %s: loop exceeded %d iterations" k.kname
                max_loop_iters
          end
        done
      | Kir.While (c, body), Site.A_while (csites, bsite, ba) ->
        let active = Array.copy mask in
        let iters = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          let next = Array.make ws false in
          group csites active (fun lane counting ->
              if as_bool (eval lane counting c) then next.(lane) <- true);
          if not (any next) then continue_ := false
          else begin
            if Array.exists2 (fun a n -> a && not n) active next then
              Warp_access.divergent acc bsite;
            Array.blit next 0 active 0 ws;
            exec active body ba;
            incr iters;
            if !iters > max_loop_iters then
              trap "kernel %s: loop exceeded %d iterations" k.kname
                max_loop_iters
          end
        done
      | Kir.Sync, Site.A_none ->
        let full =
          Array.for_all2 (fun m e -> m = e) mask exists
        in
        if not full then
          trap "kernel %s: __syncthreads under divergent control flow"
            k.kname;
        stats.syncs <- stats.syncs +. 1.;
        count_inst ();
        Effect.perform Sync_eff
      | Kir.Malloc_event, Site.A_none ->
        let active =
          Array.fold_left (fun n m -> if m then n + 1 else n) 0 mask
        in
        stats.mallocs <- stats.mallocs +. float_of_int active;
        count_inst ()
      | _, _ -> ann_mismatch ()
    in
    if n_exist > 0 then exec (Array.copy exists) k.body anns
  in

    (* block scheduler: warps are fibers; Sync suspends until all alive
       warps of the block reach the barrier *)
    let smem = make_smem () in
    let waiting = ref [] in
    let handler =
      {
        Effect.Deep.retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sync_eff ->
              Some
                (fun (cont : (a, unit) Effect.Deep.continuation) ->
                  waiting := (fun () -> Effect.Deep.continue cont ()) :: !waiting)
            | _ -> None);
      }
    in
    for w = 0 to warps_per_block - 1 do
      Effect.Deep.match_with
        (fun () -> exec_warp ~smem ~lane0:(w * ws))
        () handler
    done;
    (* a resumed continuation still runs under its original handler, so a
       subsequent Sync lands back in [waiting] *)
    while !waiting <> [] do
      let batch = List.rev !waiting in
      waiting := [];
      List.iter (fun resume -> resume ()) batch
    done
  in
  let nblocks = gx * gy * gz in
  (* linear block ids walk the grid x-innermost, matching the serial
     z/y/x nest *)
  let bid_of b = (b mod gx, b / gx mod gy, b / (gx * gy)) in
  if jobs <= 1 || nblocks <= 1 then begin
    let stats = Stats.create () in
    let acc = Warp_access.create ?attr dev mem stats in
    for b = 0 to nblocks - 1 do
      exec_block stats acc (bid_of b)
    done;
    stats
  end
  else
    Par_launch.run ~jobs ~nblocks ?attr dev mem
      ~setup:(fun sink wattr ->
        let stats = Stats.create () in
        (stats, (stats, Warp_access.create ~sink ?attr:wattr dev mem stats)))
      ~run_block:(fun (stats, acc) b -> exec_block stats acc (bid_of b))

(* ----- engine selection ----- *)

type engine = Reference | Compiled

let engine_of_string ~name =
  Ppat_gpu.Tuning.parse_enum ~name
    [
      ([ "compiled"; "closure" ], Compiled);
      ([ "reference"; "ref"; "interp" ], Reference);
    ]

let engine_name = function Compiled -> "compiled" | Reference -> "reference"

let default_engine () =
  Option.value ~default:Compiled
    (Ppat_gpu.Tuning.env "PPAT_ENGINE" engine_of_string)

let fallbacks = ref 0
let last_fallback : string option ref = ref None

(* ----- intra-launch parallelism ----- *)

let default_jobs () =
  match Ppat_gpu.Tuning.env "PPAT_SIM_JOBS" Ppat_gpu.Tuning.parse_pos_int with
  | Some n -> min n Ppat_parallel.max_jobs
  | None -> 1

let parallel_fallbacks = ref 0
let last_parallel_fallback : string option ref = ref None

(* blocks of a kernel with global atomics observe each other through the
   atomics' results, so their relative order matters; such launches run
   serially to stay deterministic (and identical to jobs = 1) *)
let effective_jobs ~jobs (l : Kir.launch) =
  if jobs <= 1 then 1
  else if (Kir.features l.kernel).f_global_atomics then begin
    incr parallel_fallbacks;
    Ppat_metrics.Metrics.incr Engine_metrics.parallel_fallbacks;
    last_parallel_fallback :=
      Some
        (Printf.sprintf "kernel %s uses global atomics; running serially"
           l.kernel.kname);
    1
  end
  else jobs

let run ?engine ?jobs ?attr (dev : Device.t) (mem : Memory.t)
    (l : Kir.launch) : Stats.t =
  let engine =
    match engine with Some e -> e | None -> default_engine ()
  in
  let jobs =
    match jobs with Some j -> max 1 (min j Ppat_parallel.max_jobs) | None -> default_jobs ()
  in
  let jobs = effective_jobs ~jobs l in
  match engine with
  | Reference -> run_reference ~jobs ?attr dev mem l
  | Compiled -> (
    validate dev l;
    match
      Ppat_metrics.Metrics.span ~cat:"staging" "compile launch" (fun () ->
          Compile.compile dev mem l)
    with
    | Ok c -> Compile.execute ~jobs ?attr dev c
    | Error reason ->
      incr fallbacks;
      Ppat_metrics.Metrics.incr Engine_metrics.fallbacks;
      last_fallback := Some reason;
      run_reference ~jobs ?attr dev mem l)
