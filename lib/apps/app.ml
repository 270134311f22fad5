type t = {
  name : string;
  prog : Ppat_ir.Pat.prog;
  params : (string * int) list;
  gen : (string * int) list -> Ppat_ir.Host.data;
  unordered : string list;
  eps : float;
  param_rules : (string * int) list -> ((string * int) list, string) result;
}

let make ?(params = []) ?(unordered = []) ?(eps = 1e-6)
    ?(param_rules = fun _ -> Ok []) ~name ~gen prog =
  { name; prog; params; gen; unordered; eps; param_rules }

let resolved_params t = Ppat_ir.Host.params_of t.prog t.params
let input_data t = t.gen (resolved_params t)

(* parameters that size a buffer or a pattern: the pipeline has no empty
   launches, so each must be at least 1 *)
let size_params (prog : Ppat_ir.Pat.prog) =
  List.concat_map
    (fun (b : Ppat_ir.Pat.buffer) ->
      List.filter_map
        (function Ppat_ir.Ty.Param p -> Some p | Ppat_ir.Ty.Const _ -> None)
        b.dims)
    prog.buffers
  @ Ppat_ir.Pat.fold_patterns
      (fun acc _ (p : Ppat_ir.Pat.pattern) ->
        match p.size with Ppat_ir.Pat.Sparam s -> s :: acc | _ -> acc)
      [] prog

exception Rejected of string

let reject fmt = Printf.ksprintf (fun s -> raise (Rejected s)) fmt

let with_params t overrides =
  try
    let known =
      List.sort_uniq compare
        (List.map fst t.prog.Ppat_ir.Pat.defaults @ List.map fst t.params)
    in
    List.iter
      (fun (k, _) ->
        if not (List.mem k known) then
          reject "no parameter %S (valid: %s)" k (String.concat ", " known))
      overrides;
    let params =
      overrides
      @ List.filter (fun (k, _) -> not (List.mem_assoc k overrides)) t.params
    in
    let env = Ppat_ir.Host.params_of t.prog params in
    let sizes = size_params t.prog in
    List.iter
      (fun (k, v) ->
        if v < 1 && List.mem k sizes then
          reject "parameter %S is a size and must be positive, got %d" k v)
      env;
    let derived =
      match t.param_rules env with Ok d -> d | Error e -> raise (Rejected e)
    in
    (* a derived value the caller sent must agree; one it did not send is
       set only where resolution would get it wrong, so consistent
       requests keep their parameter list *)
    let params =
      List.fold_left
        (fun params (k, v) ->
          match List.assoc_opt k overrides with
          | Some given when given <> v ->
            reject "parameter %S is derived: must be %d here, got %d" k v given
          | _ when List.assoc_opt k env = Some v -> params
          | _ -> List.remove_assoc k params @ [ (k, v) ])
        params derived
    in
    Ok { t with params }
  with Rejected e -> Error e
