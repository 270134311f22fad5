(* Staged execution plans. See staged.mli for the replay contract.

   The load-bearing invariant: a compiled closure tree (Compile.t)
   resolves buffer names to Memory.entry values at compile time — the
   entry's base address AND the backing array. Replay therefore never
   re-allocates; it refills the staging memory's arrays in place
   (Memory.refill preserves array identity) so every closure stays
   valid, and resets the L2 so the replayed transaction stream settles
   exactly like a cold run over the same addresses. *)

open Ppat_gpu

type exec = Closure of Compile.t | Fallback of string

type 'm slaunch = {
  launch : Kir.launch;
  exec : exec;
  meta : 'm;
}

type 'm op =
  | Exec of {
      binds : (string * Memory.entry) list;
      launches : 'm slaunch list;
      notes : string list;
    }
  | Swap of string * string
  | While of { flag : string; max_iter : int; body : 'm op list }

type 'm plan = {
  device : Device.t;
  mem : Memory.t;
  initial : (string * Memory.entry) list;
  ops : 'm op list;
  lock : Mutex.t;
}

(* ----- staging ----- *)

let stage_launch dev mem (l : Kir.launch) ~meta =
  let exec =
    match Interp.compile_launch dev mem l with
    | Ok c -> Closure c
    | Error reason -> Fallback reason
  in
  { launch = l; exec; meta }

let reference_slaunch (l : Kir.launch) ~meta =
  { launch = l; exec = Fallback "reference engine requested"; meta }

(* ----- replay ----- *)

let run_slaunch ?(jobs = 1) ?attr dev mem (sl : _ slaunch) =
  match sl.exec with
  | Fallback _ ->
    (* Interp.run applies the serial gate itself *)
    Interp.run ~engine:Interp.Reference ~jobs ?attr dev mem sl.launch
  | Closure c ->
    let jobs = Interp.effective_jobs ~jobs sl.launch in
    Compile.execute ~jobs ?attr dev c

(* the flag is looked up afresh each time: the body may rebind its name *)
let flag_loop mem ~flag ~max_iter body =
  let continue_ = ref true and iters = ref 0 in
  while !continue_ && !iters < max_iter do
    (match (Memory.find mem flag).Memory.data with
     | Ppat_ir.Host.I a -> a.(0) <- 0
     | Ppat_ir.Host.F a -> a.(0) <- 0.);
    body ();
    (continue_ :=
       match (Memory.find mem flag).Memory.data with
       | Ppat_ir.Host.I a -> a.(0) <> 0
       | Ppat_ir.Host.F a -> a.(0) <> 0.);
    incr iters
  done

let rec run_ops ~on_notes mem ~run ops =
  List.iter
    (function
      | Exec { binds; launches; notes } ->
        List.iter
          (fun (n, e) ->
            Memory.rebind mem n e;
            Memory.zero e)
          binds;
        List.iter (fun sl -> ignore (run sl)) launches;
        on_notes notes
      | Swap (a, b) -> Memory.swap mem a b
      | While { flag; max_iter; body } ->
        flag_loop mem ~flag ~max_iter (fun () ->
            run_ops ~on_notes mem ~run body))
    ops

let replay ?(on_notes = fun _ -> ()) (plan : 'm plan) ~contents
    ~(run : 'm slaunch -> Stats.t) =
  Mutex.lock plan.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock plan.lock) @@ fun () ->
  (* restore the name->entry image of load time (a previous replay may
     have left swaps applied), then refill contents in place *)
  List.iter (fun (n, e) -> Memory.rebind plan.mem n e) plan.initial;
  let refill_err =
    List.fold_left
      (fun acc (n, buf) ->
        match acc with
        | Some _ -> acc
        | None -> (
          match List.assoc_opt n plan.initial with
          | None ->
            Some (Printf.sprintf "replay: buffer %S not in the staged plan" n)
          | Some e -> (
            match Memory.refill e buf with
            | Ok () -> None
            | Error m -> Some (Printf.sprintf "replay: buffer %S: %s" n m))))
      None contents
  in
  match refill_err with
  | Some m -> Error m
  | None ->
    Memory.reset_cache plan.mem;
    run_ops ~on_notes plan.mem ~run plan.ops;
    Ok ()
