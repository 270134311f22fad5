type buf = F of float array | I of int array
type data = (string * buf) list

let params_of (prog : Pat.prog) overrides =
  let keep (k, _) = not (List.mem_assoc k overrides) in
  overrides @ List.filter keep prog.defaults

let buffer_elems params (b : Pat.buffer) =
  List.fold_left (fun acc d -> acc * Ty.extent_value params d) 1 b.dims

let copy_buf = function
  | F a -> F (Array.copy a)
  | I a -> I (Array.copy a)

let copy data = List.map (fun (k, b) -> (k, copy_buf b)) data

let alloc_all (prog : Pat.prog) params data =
  let alloc (b : Pat.buffer) =
    let n = buffer_elems params b in
    match List.assoc_opt b.bname data with
    | Some (F a) when Array.length a = n && b.elem = Ty.F64 ->
      (b.bname, F (Array.copy a))
    | Some (I a) when Array.length a = n && b.elem <> Ty.F64 ->
      (b.bname, I (Array.copy a))
    | Some _ ->
      invalid_arg
        (Printf.sprintf "alloc_all: data for %S has wrong shape or type"
           b.bname)
    | None -> (
      match b.elem with
      | Ty.F64 -> (b.bname, F (Array.make n 0.))
      | Ty.I32 | Ty.Bool -> (b.bname, I (Array.make n 0)))
  in
  List.map alloc prog.buffers

let get_f data name =
  match List.assoc_opt name data with
  | Some (F a) -> a
  | Some (I _) -> invalid_arg (Printf.sprintf "get_f: %S is integer" name)
  | None -> invalid_arg (Printf.sprintf "get_f: no buffer %S" name)

let get_i data name =
  match List.assoc_opt name data with
  | Some (I a) -> a
  | Some (F _) -> invalid_arg (Printf.sprintf "get_i: %S is float" name)
  | None -> invalid_arg (Printf.sprintf "get_i: no buffer %S" name)

let approx_equal ?(eps = 1e-9) a b =
  match a, b with
  | F x, F y ->
    Array.length x = Array.length y
    && (let ok = ref true in
        Array.iteri
          (fun i xi ->
            let yi = y.(i) in
            let scale = Float.max 1. (Float.max (Float.abs xi) (Float.abs yi)) in
            if Float.abs (xi -. yi) > eps *. scale then ok := false)
          x;
        !ok)
  | I x, I y -> x = y
  | F _, I _ | I _, F _ -> false
