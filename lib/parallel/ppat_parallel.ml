(* Shared multi-domain worker pool.

   One persistent pool of OCaml 5 domains serves every parallel consumer in
   the process: `ppat figures`, sweeps and served batches fan out whole
   runs, and the simulator fans out the blocks of a single launch
   (Interp/Compile's intra-launch mode). Spawning a domain costs tens of microseconds and a launch can be
   sub-millisecond, so the domains are spawned once and parked on a
   condition variable between batches instead of being re-spawned per
   [pool_run] call.

   Scheduling is work-stealing over an atomic counter: items of a batch are
   claimed with [fetch_and_add], so a slow item never leaves the remaining
   domains idle. The pool is reentrant — a task may itself call [pool_run]
   on the same pool; the inner caller participates in draining its own
   batch, so nesting cannot deadlock (it can only serialise). *)

let max_jobs = 64

(* one worker per available core, clamped to the pool's hard cap; the old
   hard-coded cap of 8 under-used larger hosts *)
let default_jobs () =
  max 1 (min max_jobs (Domain.recommended_domain_count ()))

(* ----- the persistent pool ----- *)

type batch = {
  run_item : int -> unit;  (* exception-safe: wraps the user task *)
  size : int;
  next : int Atomic.t;  (* next unclaimed item *)
  unfinished : int Atomic.t;  (* items not yet completed *)
}

type pool = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable queue : batch list;  (* batches with unclaimed items *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  mutable nworkers : int;
}

(* pool.tasks counts every claimed item; pool.steals the subset claimed
   by a parked worker domain rather than the submitting caller's own
   drain — the pool's measure of how much work actually migrated. *)
let m_tasks = Ppat_metrics.Metrics.counter "pool.tasks"
let m_steals = Ppat_metrics.Metrics.counter "pool.steals"

let finish_item pool b =
  if Atomic.fetch_and_add b.unfinished (-1) = 1 then begin
    (* last item of the batch: wake the caller blocked in [run] (and any
       parked worker, which will just re-check the queue) *)
    Mutex.lock pool.lock;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.lock
  end

(* claim and run items of [b] until none are left; [steal] marks drains
   running on a parked worker domain rather than the submitting caller *)
let drain ?(steal = false) pool b =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.size then begin
      Ppat_metrics.Metrics.incr m_tasks;
      if steal then Ppat_metrics.Metrics.incr m_steals;
      b.run_item i;
      finish_item pool b;
      go ()
    end
  in
  go ()

let worker pool =
  let live = ref true in
  while !live do
    Mutex.lock pool.lock;
    let rec get () =
      match
        List.find_opt (fun b -> Atomic.get b.next < b.size) pool.queue
      with
      | Some b -> Some b
      | None ->
        pool.queue <-
          List.filter (fun b -> Atomic.get b.next < b.size) pool.queue;
        if pool.stopped then None
        else begin
          Condition.wait pool.cond pool.lock;
          get ()
        end
    in
    (match get () with
     | Some b ->
       Mutex.unlock pool.lock;
       drain ~steal:true pool b
     | None ->
       Mutex.unlock pool.lock;
       live := false)
  done

let make_pool ~workers =
  let pool =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      queue = [];
      stopped = false;
      workers = [];
      nworkers = workers;
    }
  in
  pool.workers <- List.init workers (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopped <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* the process-wide pool, grown on demand. Spawned domains keep the runtime
   alive at exit, so the first creation registers a shutdown hook. *)
let global : pool option ref = ref None
let global_lock = Mutex.create ()

(* Grow the pool IN PLACE when a wider batch arrives. Tearing the old pool
   down first (shutdown + Domain.join) deadlocks under nesting: the joined
   worker may be executing the very task that asked for the wider pool —
   e.g. a sweep worker whose simulation runs at sim_jobs > outer jobs. *)
let get_pool ~jobs =
  Mutex.lock global_lock;
  let pool =
    match !global with
    | Some p ->
      if p.nworkers < jobs - 1 then begin
        let extra = jobs - 1 - p.nworkers in
        p.workers <-
          p.workers
          @ List.init extra (fun _ -> Domain.spawn (fun () -> worker p));
        p.nworkers <- jobs - 1
      end;
      p
    | None ->
      let p = make_pool ~workers:(jobs - 1) in
      global := Some p;
      at_exit (fun () ->
          Mutex.lock global_lock;
          let p = !global in
          global := None;
          Mutex.unlock global_lock;
          match p with Some p -> shutdown p | None -> ());
      p
  in
  Mutex.unlock global_lock;
  pool

let run_batch pool n (task : int -> 'a) : 'a array =
  let results : 'a option array = Array.make n None in
  let error : (int * exn) option Atomic.t = Atomic.make None in
  let run_item i =
    match task i with
    | v -> results.(i) <- Some v
    | exception e ->
      (* keep the lowest-index failure so the re-raise is deterministic *)
      let rec record () =
        match Atomic.get error with
        | Some (j, _) when j <= i -> ()
        | cur -> if not (Atomic.compare_and_set error cur (Some (i, e))) then record ()
      in
      record ()
  in
  let b =
    { run_item; size = n; next = Atomic.make 0; unfinished = Atomic.make n }
  in
  Mutex.lock pool.lock;
  pool.queue <- pool.queue @ [ b ];
  Condition.broadcast pool.cond;
  Mutex.unlock pool.lock;
  drain pool b;
  Mutex.lock pool.lock;
  while Atomic.get b.unfinished > 0 do
    Condition.wait pool.cond pool.lock
  done;
  Mutex.unlock pool.lock;
  match Atomic.get error with
  | Some (_, e) -> raise e
  | None ->
    Array.map (function Some v -> v | None -> assert false) results

let pool_run ~jobs n (task : int -> 'a) : 'a array =
  if n <= 0 then [||]
  else begin
    let jobs = max 1 (min jobs max_jobs) in
    if jobs <= 1 || n = 1 then begin
      (* serial path: run in index order on the calling domain *)
      let r0 = task 0 in
      let results = Array.make n r0 in
      for i = 1 to n - 1 do
        results.(i) <- task i
      done;
      results
    end
    else run_batch (get_pool ~jobs) n task
  end

(* ----- per-domain output capture ----- *)

(* run [f] with this domain's [Format] standard formatter redirected into a
   buffer. [Format.std_formatter] is domain-local in OCaml 5, so captures
   on different worker domains cannot interleave. *)
let with_captured f =
  let buf = Buffer.create 4096 in
  let old_out, old_flush = Format.get_formatter_output_functions () in
  Format.set_formatter_output_functions (Buffer.add_substring buf)
    (fun () -> ());
  Fun.protect
    ~finally:(fun () ->
      Format.print_flush ();
      Format.set_formatter_output_functions old_out old_flush)
    f;
  Buffer.contents buf
