let cdiv a b = (a + b - 1) / b

let control (dev : Ppat_gpu.Device.t) ~sizes ?(splittable = fun _ -> true)
    (m : Mapping.t) =
  let m = Array.copy m in
  let current = Mapping.dop ~sizes m in
  let min_dop = Ppat_gpu.Device.min_dop dev in
  let max_dop = Ppat_gpu.Device.max_dop dev in
  if current < min_dop then begin
    (* the splittable Span(all) level with the most recoverable parallelism *)
    let best = ref None in
    Array.iteri
      (fun l (d : Mapping.decision) ->
        if d.span = Mapping.Span_all && splittable l then begin
          let gain = cdiv sizes.(l) (max 1 d.bsize) in
          match !best with
          | Some (_, g) when g >= gain -> ()
          | _ -> best := Some (l, gain)
        end)
      m;
    match !best with
    | Some (l, gain) when gain > 1 ->
      let k = min gain (cdiv min_dop (max 1 current)) in
      if k >= 2 then m.(l) <- { (m.(l)) with span = Mapping.Split k }
    | _ -> ()
  end
  else if current > max_dop then begin
    (* coarsen the Span(1) level with the largest size *)
    let best = ref None in
    Array.iteri
      (fun l (d : Mapping.decision) ->
        if d.span = Mapping.Span 1 then
          match !best with
          | Some (_, s) when s >= sizes.(l) -> ()
          | _ -> best := Some (l, sizes.(l)))
      m;
    match !best with
    | Some (l, size) ->
      let n = min size (cdiv current max_dop) in
      if n >= 2 then m.(l) <- { (m.(l)) with span = Mapping.Span n }
    | None -> ()
  end;
  m
