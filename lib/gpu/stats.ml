type t = {
  mutable warp_insts : float;
  mutable mem_insts : float;
  mutable transactions : float;
  mutable bytes : float;
  mutable l2_bytes : float;
  mutable smem_insts : float;
  mutable smem_conflict_extra : float;
  mutable syncs : float;
  mutable shuffles : float;
  mutable divergent_branches : float;
  mutable atomics : float;
  mutable atomic_serial_extra : float;
  mutable mallocs : float;
}

let create () =
  {
    warp_insts = 0.;
    mem_insts = 0.;
    transactions = 0.;
    bytes = 0.;
    l2_bytes = 0.;
    smem_insts = 0.;
    smem_conflict_extra = 0.;
    syncs = 0.;
    shuffles = 0.;
    divergent_branches = 0.;
    atomics = 0.;
    atomic_serial_extra = 0.;
    mallocs = 0.;
  }

let add acc s =
  acc.warp_insts <- acc.warp_insts +. s.warp_insts;
  acc.mem_insts <- acc.mem_insts +. s.mem_insts;
  acc.transactions <- acc.transactions +. s.transactions;
  acc.bytes <- acc.bytes +. s.bytes;
  acc.l2_bytes <- acc.l2_bytes +. s.l2_bytes;
  acc.smem_insts <- acc.smem_insts +. s.smem_insts;
  acc.smem_conflict_extra <- acc.smem_conflict_extra +. s.smem_conflict_extra;
  acc.syncs <- acc.syncs +. s.syncs;
  acc.shuffles <- acc.shuffles +. s.shuffles;
  acc.divergent_branches <- acc.divergent_branches +. s.divergent_branches;
  acc.atomics <- acc.atomics +. s.atomics;
  acc.atomic_serial_extra <- acc.atomic_serial_extra +. s.atomic_serial_extra;
  acc.mallocs <- acc.mallocs +. s.mallocs

let reset s =
  s.warp_insts <- 0.;
  s.mem_insts <- 0.;
  s.transactions <- 0.;
  s.bytes <- 0.;
  s.l2_bytes <- 0.;
  s.smem_insts <- 0.;
  s.smem_conflict_extra <- 0.;
  s.syncs <- 0.;
  s.shuffles <- 0.;
  s.divergent_branches <- 0.;
  s.atomics <- 0.;
  s.atomic_serial_extra <- 0.;
  s.mallocs <- 0.

let copy s =
  let c = create () in
  add c s;
  c

(* the single source of the counter list: pp and the JSON exporters both
   iterate this, so the field sets cannot drift apart *)
let to_assoc s =
  [
    ("warp_insts", s.warp_insts);
    ("mem_insts", s.mem_insts);
    ("transactions", s.transactions);
    ("bytes", s.bytes);
    ("l2_bytes", s.l2_bytes);
    ("smem_insts", s.smem_insts);
    ("smem_conflict_extra", s.smem_conflict_extra);
    ("syncs", s.syncs);
    ("shuffles", s.shuffles);
    ("divergent_branches", s.divergent_branches);
    ("atomics", s.atomics);
    ("atomic_serial_extra", s.atomic_serial_extra);
    ("mallocs", s.mallocs);
  ]

(* exact float equality on purpose: the two execution engines must agree
   bit for bit, not approximately *)
let equal a b =
  List.for_all2
    (fun (_, x) (_, y) -> Float.equal x y)
    (to_assoc a) (to_assoc b)

let l2_hit_rate s =
  let total = s.bytes +. s.l2_bytes in
  if total <= 0. then 0. else s.l2_bytes /. total

let bytes_per_transaction s =
  if s.transactions <= 0. then 0.
  else (s.bytes +. s.l2_bytes) /. s.transactions

let pp ppf s =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Format.pp_print_cut ppf ();
      Format.fprintf ppf "%s: %.0f" name v)
    (to_assoc s);
  Format.fprintf ppf "@,l2 hit rate: %.1f%%@,bytes/transaction: %.1f"
    (100. *. l2_hit_rate s)
    (bytes_per_transaction s);
  Format.pp_close_box ppf ()
