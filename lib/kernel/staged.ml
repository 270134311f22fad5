(* Staged execution plans. See staged.mli for the replay contract.

   The load-bearing invariant: a compiled closure tree (Compile.t)
   resolves buffer names to Memory.entry values at compile time — the
   entry's base address AND the backing array. Replay therefore never
   re-allocates; it refills the staging memory's arrays in place
   (Memory.refill preserves array identity) so every closure stays
   valid, and resets the L2 so the replayed transaction stream settles
   exactly like a cold run over the same addresses. *)

open Ppat_gpu
module Metrics = Ppat_metrics.Metrics
module Lru = Ppat_metrics.Lru

type exec = Closure of Compile.t | Fallback of string

type 'm slaunch = {
  launch : Kir.launch;
  exec : exec;
  serial_only : bool;
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

type kcache = (Compile.t, string) result Lru.t

let kcache ?(capacity = 128) () : kcache = Lru.create ~capacity "kernel_stage"

let launch_digest (l : Kir.launch) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (l.Kir.kernel, l.Kir.grid, l.Kir.block, l.Kir.kparams) []))

let stage_launch ?cache dev mem (l : Kir.launch) ~meta =
  Interp.validate dev l;
  let compiled =
    let doit () =
      Metrics.span ~cat:"staging" "compile launch" (fun () ->
          Compile.compile dev mem l)
    in
    match cache with
    | None -> doit ()
    | Some c ->
      (* the epoch pins the memory image the closure was compiled under:
         any rebind since makes the cached closure unusable *)
      let key = Printf.sprintf "%s@%d" (launch_digest l) (Memory.epoch mem) in
      snd (Lru.find_or_add c key doit)
  in
  let exec =
    match compiled with
    | Ok c -> Closure c
    | Error reason ->
      (* same accounting a cold Interp.run would do on rejection *)
      incr Interp.fallbacks;
      Metrics.incr Engine_metrics.fallbacks;
      Interp.last_fallback := Some reason;
      Fallback reason
  in
  { launch = l; exec; serial_only = (Kir.features l.Kir.kernel).Kir.f_global_atomics; meta }

let reference_slaunch (l : Kir.launch) ~meta =
  {
    launch = l;
    exec = Fallback "reference engine requested";
    serial_only = (Kir.features l.Kir.kernel).Kir.f_global_atomics;
    meta;
  }

(* ----- replay ----- *)

let run_slaunch ?(jobs = 1) ?attr dev mem (sl : _ slaunch) =
  match sl.exec with
  | Fallback _ ->
    (* Interp.run applies the serial gate itself *)
    Interp.run ~engine:Interp.Reference ~jobs ?attr dev mem sl.launch
  | Closure c ->
    let jobs = Interp.effective_jobs ~jobs sl.launch in
    Compile.execute ~jobs ?attr dev c

let read_flag mem flag =
  match (Memory.find mem flag).Memory.data with
  | Ppat_ir.Host.I a -> a.(0) <> 0
  | Ppat_ir.Host.F a -> a.(0) <> 0.

let clear_flag mem flag =
  match (Memory.find mem flag).Memory.data with
  | Ppat_ir.Host.I a -> a.(0) <- 0
  | Ppat_ir.Host.F a -> a.(0) <- 0.

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
    let rec op o =
      match o with
      | Exec { binds; launches; notes } ->
        List.iter
          (fun (n, e) ->
            Memory.rebind plan.mem n e;
            Memory.zero e)
          binds;
        List.iter (fun sl -> ignore (run sl)) launches;
        on_notes notes
      | Swap (a, b) -> Memory.swap plan.mem a b
      | While { flag; max_iter; body } ->
        let continue_ = ref true and iters = ref 0 in
        while !continue_ && !iters < max_iter do
          clear_flag plan.mem flag;
          List.iter op body;
          continue_ := read_flag plan.mem flag;
          incr iters
        done
    in
    List.iter op plan.ops;
    Ok ()
