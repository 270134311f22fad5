let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let soft_satisfied (dev : Ppat_gpu.Device.t) (m : Mapping.t) = function
  | Constr.Coalesce { strides; _ } -> (
    (* the access coalesces when the x-assigned level steps the address by
       one element (and enough of a warp runs along x), and degenerates to
       a broadcast (also one transaction) when it does not step at all *)
    match Mapping.level_of_dim m Mapping.X with
    | None -> false
    | Some xl -> (
      match List.assoc_opt xl strides with
      | Some (Some 1) -> m.(xl).Mapping.bsize mod dev.warp_size = 0
      | Some (Some 0) -> true
      | Some _ | None -> false))
  | Constr.Min_block _ ->
    Mapping.threads_per_block m >= Ppat_gpu.Device.min_block_size
  | Constr.Fit { level; size; _ } ->
    m.(level).Mapping.bsize <= max dev.warp_size (next_pow2 size)
  | Constr.Lean_reduce { level; _ } ->
    m.(level).Mapping.bsize <= dev.warp_size

type component = {
  constr : Constr.soft;
  satisfied : bool;
  weight : float;  (** contributed to the score iff [satisfied] *)
}

let explain dev softs m =
  List.map
    (fun s ->
      {
        constr = s;
        satisfied = soft_satisfied dev m s;
        weight = Constr.soft_weight s;
      })
    softs

let score dev softs m =
  List.fold_left
    (fun acc c -> if c.satisfied then acc +. c.weight else acc)
    0. (explain dev softs m)
