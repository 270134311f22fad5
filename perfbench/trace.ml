(* Spans recorded from the benchmark's side of each library call: name,
   start, stop, parent and the run/request id. They stay in memory and are
   written out (Chrome trace JSON) only when the run ends. A layer's self
   time is its span's duration minus its direct children's.

   Some calls report their own split (a serve response's timing_ms, a
   sweep's staging and simulation busy time); [child] records such a part
   as a synthetic child of the open span, laid end to end from the span's
   start. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  op : int;  (* run / request id; -1 outside any *)
  start : float;
  stop : float;
  children : float;  (* summed duration of direct children *)
}

type frame = {
  f_id : int;
  f_name : string;
  f_parent : int;
  f_start : float;
  mutable f_children : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : frame list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

let fresh_id () =
  let i = !next_id in
  incr next_id;
  i

let push name start =
  let f =
    {
      f_id = fresh_id ();
      f_name = name;
      f_parent = (match !stack with p :: _ -> p.f_id | [] -> -1);
      f_start = start;
      f_children = 0.;
    }
  in
  stack := f :: !stack;
  f

let pop f stop =
  stack := List.tl !stack;
  (match !stack with p :: _ -> p.f_children <- p.f_children +. (stop -. f.f_start) | [] -> ());
  recorded :=
    {
      id = f.f_id;
      name = f.f_name;
      parent = f.f_parent;
      op = !current_op;
      start = f.f_start;
      stop;
      children = f.f_children;
    }
    :: !recorded

let span name f =
  if not !enabled then f ()
  else begin
    let fr = push name (Unix.gettimeofday ()) in
    match f () with
    | r ->
      pop fr (Unix.gettimeofday ());
      r
    | exception e ->
      pop fr (Unix.gettimeofday ());
      raise e
  end

(* a part of the open span's duration that the callee measured itself *)
let child name seconds =
  if !enabled && seconds > 0. then
    match !stack with
    | [] -> ()
    | p :: _ ->
      let start = p.f_start +. p.f_children in
      pop (push name start) (start +. seconds)

(* [span] for a call that reports its own split: [parts] reads the split
   off [f]'s result after the span's clock has stopped, so reading it costs
   the caller, not the span. Returns [f]'s result, [parts]'s value and the
   span's wall clock, traced or not. *)
let span_parts name f parts =
  let t0 = Unix.gettimeofday () in
  let fr = if !enabled then Some (push name t0) else None in
  let r =
    match f () with
    | r -> r
    | exception e ->
      Option.iter (fun fr -> pop fr (Unix.gettimeofday ())) fr;
      raise e
  in
  let stop = Unix.gettimeofday () in
  match parts r with
  | v, split ->
    Option.iter
      (fun fr ->
        List.iter (fun (n, d) -> child n d) split;
        pop fr stop)
      fr;
    (r, v, stop -. t0)
  | exception e ->
    Option.iter (fun fr -> pop fr stop) fr;
    raise e

let ops = ref 0

(* run [f] as a new run/request: its spans carry a fresh id *)
let op f =
  let saved = !current_op in
  current_op := !ops;
  incr ops;
  Fun.protect ~finally:(fun () -> current_op := saved) f

(* span name -> the per-layer self-time metric it feeds *)
let layer_of = function
  | "apps.gen" -> "apps.gen.s"
  | "core.collect" | "core.search" -> "core.search.s"
  | "codegen.lower" | "kernel.compile" | "kernel.stage" -> "kernel.stage.s"
  | "kernel.simulate" -> "kernel.simulate.s"
  | "cpu.oracle" -> "cpu.oracle.s"
  | "harness.check" -> "harness.check.s"
  | "harness.walk" | "harness.sweep" | "serve.request" -> "pipeline.other.s"
  | _ -> "bench.self.s"

(* self seconds per layer metric; a synthetic split larger than its span
   is clamped so no self time goes negative *)
let self_times () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = Float.max 0. (s.stop -. s.start -. s.children) in
      let k = layer_of s.name in
      Hashtbl.replace tbl k (self +. Option.value ~default:0. (Hashtbl.find_opt tbl k)))
    !recorded;
  tbl

let count () = List.length !recorded

let write_chrome file =
  let module J = Ppat_profile.Jsonx in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !recorded in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str (layer_of s.name));
        ("ph", J.Str "X");
        ("ts", J.Float ((s.start -. t0) *. 1e6));
        ("dur", J.Float ((s.stop -. s.start) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            [
              ("id", J.Int s.id);
              ("parent", J.Int s.parent);
              ("op", J.Int s.op);
              ("self_us", J.Float (Float.max 0. (s.stop -. s.start -. s.children) *. 1e6));
            ] );
      ]
  in
  J.to_file file (J.Obj [ ("traceEvents", J.List (List.rev_map ev !recorded)) ])
