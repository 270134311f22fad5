type entry = { base : int; elem_bytes : int; data : Ppat_ir.Host.buf }

(* One address slice of the approximate-LRU L2, as an open-addressed table:
   [keys.(i)] holds a line id ([l2_empty] when the slot is free) and
   [ticks.(i)] its last-touch tick. Linear probing, power-of-two capacity;
   entries are only removed by the eviction rebuild, so there are no
   tombstones. Tables are probed once per distinct line on every warp
   memory instruction, so the lookup path must not allocate — which is why
   this is not a Hashtbl (whose [replace] is a remove+add that allocates a
   bucket cell on every touch).

   The L2 is split into [Device.l2_slices] such tables, a line id hashing
   to exactly one slice — the same address-partitioned organisation as the
   hardware's banked L2 (one slice per memory partition). Each slice keeps
   its own tick counter and evicts against its own share of the capacity,
   so a slice's hit/miss outcome is a pure function of the access stream
   routed to it. *)
type l2_slice = {
  mutable keys : int array;
  mutable ticks : int array;
  mutable mask : int;
  mutable live : int;
  mutable tick : int;
}

type t = {
  mutable next_base : int;
  bufs : (string, entry) Hashtbl.t;
  (* created lazily on first cache access, which fixes the slice count for
     the lifetime of the memory (the engines pass [Device.l2_slices]; the
     legacy list API models a single unified table) *)
  mutable l2 : l2_slice array;
}

(* line ids are non-negative in practice (byte addr / transaction bytes,
   bases start at 256), so min_int is safe as the empty-slot sentinel *)
let l2_empty = min_int
let l2_init_capacity = 4096

let create () =
  {
    next_base = 256;
    bufs = Hashtbl.create 32;
    l2 = [||];
  }

let align n a = (n + a - 1) / a * a

let install t name elem_bytes data nbytes =
  let base = align t.next_base 256 in
  t.next_base <- base + nbytes;
  let e = { base; elem_bytes; data } in
  Hashtbl.replace t.bufs name e;
  e

let load t name (buf : Ppat_ir.Host.buf) =
  match buf with
  | Ppat_ir.Host.F a ->
    install t name 8 (Ppat_ir.Host.F (Array.copy a)) (8 * Array.length a)
  | Ppat_ir.Host.I a ->
    install t name 4 (Ppat_ir.Host.I (Array.copy a)) (4 * Array.length a)

let alloc_f t name n =
  install t name 8 (Ppat_ir.Host.F (Array.make n 0.)) (8 * n)

let alloc_i t name n =
  install t name 4 (Ppat_ir.Host.I (Array.make n 0)) (4 * n)

let find t name =
  match Hashtbl.find_opt t.bufs name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Memory.find: no buffer %S" name)

let mem t name = Hashtbl.mem t.bufs name

let swap t a b =
  let ea = find t a and eb = find t b in
  Hashtbl.replace t.bufs a eb;
  Hashtbl.replace t.bufs b ea

let rebind t name e = Hashtbl.replace t.bufs name e

(* forget every cached L2 line, returning the memory to its cold state;
   the slice count is re-fixed by the next cache access, exactly as on a
   fresh memory. Staged-plan replay calls this so a warm (cache-hit)
   request prices its traffic through the same cold L2 a fresh run
   would. *)
let reset_cache t = t.l2 <- [||]

let refill (e : entry) (src : Ppat_ir.Host.buf) =
  match (e.data, src) with
  | Ppat_ir.Host.F dst, Ppat_ir.Host.F s when Array.length dst = Array.length s ->
    Array.blit s 0 dst 0 (Array.length s);
    Ok ()
  | Ppat_ir.Host.I dst, Ppat_ir.Host.I s when Array.length dst = Array.length s ->
    Array.blit s 0 dst 0 (Array.length s);
    Ok ()
  | _ -> Error "refill: buffer shape or element type changed"

let zero (e : entry) =
  match e.data with
  | Ppat_ir.Host.F a -> Array.fill a 0 (Array.length a) 0.
  | Ppat_ir.Host.I a -> Array.fill a 0 (Array.length a) 0

let to_host t name =
  match (find t name).data with
  | Ppat_ir.Host.F a -> Ppat_ir.Host.F (Array.copy a)
  | Ppat_ir.Host.I a -> Ppat_ir.Host.I (Array.copy a)

let addr e i = e.base + (i * e.elem_bytes)

(* ----- allocation-free warp-access scratch -----

   One warp memory instruction touches at most [warp_size] addresses, so
   the dedup/sort work fits in a small reusable int array: insertion sort
   (cheap at n <= 32) followed by an in-place distinct scan. Both execution
   engines and the legacy list API below go through this path, so the
   coalescing rule has a single implementation. *)

let sort_prefix (a : int array) n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* map addresses to line ids, sort, dedup in place; returns the number of
   distinct lines now occupying a.(0 .. result-1) in ascending order *)
let dedup_lines ~transaction_bytes (a : int array) n =
  if n = 0 then 0
  else begin
    (* addresses are non-negative (bounds-checked before the flush), so a
       shift equals the division whenever the line size is a power of two *)
    if transaction_bytes land (transaction_bytes - 1) = 0 then begin
      let sh = ref 0 in
      while 1 lsl !sh < transaction_bytes do
        incr sh
      done;
      let sh = !sh in
      for i = 0 to n - 1 do
        Array.unsafe_set a i (Array.unsafe_get a i lsr sh)
      done
    end
    else
      for i = 0 to n - 1 do
        a.(i) <- a.(i) / transaction_bytes
      done;
    sort_prefix a n;
    let w = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    !w
  end

(* distinct values and worst multiplicity of a.(0..n-1); sorts in place.
   Used for atomic contention: how many distinct addresses (serialised
   transactions) and the deepest pile-up on one address. *)
let distinct_and_worst (a : int array) n =
  if n = 0 then (0, 0)
  else begin
    sort_prefix a n;
    let distinct = ref 1 and worst = ref 1 and run = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) = a.(i - 1) then begin
        incr run;
        if !run > !worst then worst := !run
      end
      else begin
        incr distinct;
        run := 1
      end
    done;
    (!distinct, !worst)
  end

(* shared-memory bank conflicts: sort word indices by (bank, word); the
   replay factor is the largest count of distinct words mapped to one bank
   (same-word broadcast is free). Clobbers a.(0..n-1).

   The general path below recomputes the bank (two mod ops) inside every
   comparison of an O(n^2) insertion sort, which made this the simulator's
   single hottest function. The fast path packs (bank, word) into one int
   key — word indices flushed by the engines are non-negative (a negative
   index traps before the flush) and far below 2^52, and the bank count of
   every modelled device is a power of two — so the sort compares plain
   ints and the run scan decodes banks with a shift. *)
let general_bank_conflict_factor ~banks (a : int array) n =
  if n = 0 then 1
  else begin
    let bank w = ((w mod banks) + banks) mod banks in
    (* insertion sort on the (bank, word) key *)
    for i = 1 to n - 1 do
      let x = a.(i) in
      let bx = bank x in
      let j = ref (i - 1) in
      while
        !j >= 0
        && (let b = bank a.(!j) in
            b > bx || (b = bx && a.(!j) > x))
      do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    let factor = ref 1 and run = ref 1 in
    for i = 1 to n - 1 do
      if bank a.(i) = bank a.(i - 1) then begin
        if a.(i) <> a.(i - 1) then begin
          incr run;
          if !run > !factor then factor := !run
        end
      end
      else run := 1
    done;
    !factor
  end

let tagged_bank_sort ~bmask (a : int array) n =
  for i = 0 to n - 1 do
    let w = Array.unsafe_get a i in
    Array.unsafe_set a i (((w land bmask) lsl 52) lor w)
  done;
  sort_prefix a n;
  let factor = ref 1 and run = ref 1 in
  for i = 1 to n - 1 do
    let k = Array.unsafe_get a i and p = Array.unsafe_get a (i - 1) in
    if k lsr 52 = p lsr 52 then begin
      if k <> p then begin
        incr run;
        if !run > !factor then factor := !run
      end
    end
    else run := 1
  done;
  !factor

let bank_conflict_factor ~banks (a : int array) n =
  if n = 0 then 1
  else if banks > 0 && banks land (banks - 1) = 0 && banks <= 62 then begin
    (* For power-of-two bank counts [w land bmask] is the mathematical bank
       for any sign of [w], so the two patterns that dominate real kernels
       can be answered in one O(n) pass with no precondition scan: every
       lane in its own bank (conflict-free strided access, the bank
       occupancy set fits one int at banks <= 62) and every lane on the
       same word (broadcast). Both are factor 1 and leave the buffer
       untouched; anything else falls through to the tagged sort. *)
    let bmask = banks - 1 in
    let seen = ref 0 and dup = ref false in
    for i = 0 to n - 1 do
      let b = Array.unsafe_get a i land bmask in
      if !seen lsr b land 1 <> 0 then dup := true
      else seen := !seen lor (1 lsl b)
    done;
    if not !dup then 1
    else begin
      let w0 = Array.unsafe_get a 0 in
      let same = ref true in
      for i = 1 to n - 1 do
        if Array.unsafe_get a i <> w0 then same := false
      done;
      if !same then 1
      else begin
        (* the packed key needs non-negative words below 2^52 *)
        let fits = ref true in
        for i = 0 to n - 1 do
          let w = Array.unsafe_get a i in
          if w < 0 || w >= 1 lsl 52 then fits := false
        done;
        if !fits then tagged_bank_sort ~bmask a n
        else general_bank_conflict_factor ~banks a n
      end
    end
  end
  else begin
    let fits = ref (banks > 0 && banks land (banks - 1) = 0) in
    let i = ref 0 in
    while !fits && !i < n do
      let w = a.(!i) in
      if w < 0 || w >= 1 lsl 52 then fits := false;
      incr i
    done;
    if !fits then tagged_bank_sort ~bmask:(banks - 1) a n
    else general_bank_conflict_factor ~banks a n
  end

(* multiplicative hash (Knuth), masked to the table size *)
let l2_hash line mask = line * 0x9E3779B1 land mask

(* which slice a line belongs to: different bits of the same product as the
   in-slice probe hash, so the slice choice and the probe position are not
   correlated *)
let l2_slice_of line nslices =
  if nslices = 1 then 0 else (line * 0x9E3779B1 lsr 16) mod nslices

let fresh_slice () =
  {
    keys = Array.make l2_init_capacity l2_empty;
    ticks = Array.make l2_init_capacity 0;
    mask = l2_init_capacity - 1;
    live = 0;
    tick = 0;
  }

let l2_get t ~slices =
  if Array.length t.l2 = 0 then
    t.l2 <- Array.init (max 1 slices) (fun _ -> fresh_slice ());
  t.l2

(* insert a key known to be absent into fresh arrays (rebuild helper) *)
let l2_insert keys ticks mask line tick =
  let i = ref (l2_hash line mask) in
  while Array.unsafe_get keys !i <> l2_empty do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set keys !i line;
  Array.unsafe_set ticks !i tick

(* double the capacity, re-inserting every live entry *)
let l2_grow (sl : l2_slice) =
  let cap = 2 * (sl.mask + 1) in
  let keys = Array.make cap l2_empty and ticks = Array.make cap 0 in
  let mask = cap - 1 in
  let old_keys = sl.keys and old_ticks = sl.ticks in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k <> l2_empty then
      l2_insert keys ticks mask k (Array.unsafe_get old_ticks i)
  done;
  sl.keys <- keys;
  sl.ticks <- ticks;
  sl.mask <- mask

(* in-place quickselect (median-of-three + Lomuto): the value at ascending
   rank [idx] of a.(0..n-1). Streaming workloads evict often enough that a
   full sort here is measurable; selection is O(n) and allocates nothing. *)
let nth_smallest (a : int array) n idx =
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let l = !lo and h = !hi in
    let mid = l + ((h - l) / 2) in
    if a.(mid) < a.(l) then swap mid l;
    if a.(h) < a.(l) then swap h l;
    if a.(h) < a.(mid) then swap h mid;
    swap mid h;
    let pivot = a.(h) in
    let s = ref l in
    for i = l to h - 1 do
      if a.(i) < pivot then begin
        swap i !s;
        incr s
      end
    done;
    swap !s h;
    if idx = !s then begin
      lo := idx;
      hi := idx
    end
    else if idx < !s then hi := !s - 1
    else lo := !s + 1
  done;
  a.(idx)

let evict_slice (sl : l2_slice) ~slice_cap =
  (* keep the newest [slice_cap] lines of this slice. Ticks are strictly
     increasing within a slice (no ties), so the survivors are exactly the
     entries at or above the [keep]-th largest tick — a selection problem,
     not a sort. *)
  let keys = sl.keys and ticks = sl.ticks in
  let live = sl.live in
  let tickbuf = Array.make live 0 in
  let w = ref 0 in
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> l2_empty then begin
      tickbuf.(!w) <- ticks.(i);
      incr w
    end
  done;
  let keep = min slice_cap live in
  let threshold = nth_smallest tickbuf live (live - keep) in
  let cap = ref l2_init_capacity in
  while 4 * keep > 3 * !cap do
    cap := 2 * !cap
  done;
  let nkeys = Array.make !cap l2_empty and nticks = Array.make !cap 0 in
  let mask = !cap - 1 in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k <> l2_empty && ticks.(i) >= threshold then
      l2_insert nkeys nticks mask k ticks.(i)
  done;
  sl.keys <- nkeys;
  sl.ticks <- nticks;
  sl.mask <- mask;
  sl.live <- keep

(* touch one line in its slice; eviction is checked per insertion
   (amortised: the O(live) rebuild fires when 25% over the slice's share of
   capacity), so slice state depends only on the slice's own stream *)
let touch_line (sl : l2_slice) ~slice_cap line hits =
  sl.tick <- sl.tick + 1;
  let keys = sl.keys in
  let mask = sl.mask in
  let i = ref (l2_hash line mask) in
  while
    let k = Array.unsafe_get keys !i in
    k <> l2_empty && k <> line
  do
    i := (!i + 1) land mask
  done;
  if Array.unsafe_get keys !i = l2_empty then begin
    Array.unsafe_set keys !i line;
    sl.live <- sl.live + 1;
    Array.unsafe_set sl.ticks !i sl.tick;
    if 4 * sl.live > 3 * (mask + 1) then l2_grow sl;
    if sl.live > slice_cap + (slice_cap / 4) then
      evict_slice sl ~slice_cap
  end
  else begin
    incr hits;
    Array.unsafe_set sl.ticks !i sl.tick
  end

(* array-prefix variant of [cache_access]: lines.(0..n-1) through the
   sliced L2; [slices] fixes the shard count on the memory's first access *)
let cache_access_lines t ~cap_lines ?(slices = 1) (lines : int array) n =
  let l2 = l2_get t ~slices in
  let nslices = Array.length l2 in
  let slice_cap = max 1 (cap_lines / nslices) in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    let line = Array.unsafe_get lines i in
    touch_line
      (Array.unsafe_get l2 (l2_slice_of line nslices))
      ~slice_cap line hits
  done;
  !hits

let segments ~transaction_bytes addrs =
  let a = Array.of_list addrs in
  let n = dedup_lines ~transaction_bytes a (Array.length a) in
  Array.to_list (Array.sub a 0 n)

let coalesce ~transaction_bytes addrs =
  List.length (segments ~transaction_bytes addrs)

let cache_access t ~cap_lines ~lines =
  let a = Array.of_list lines in
  cache_access_lines t ~cap_lines a (Array.length a)
