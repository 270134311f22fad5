(* __syncthreads for both execution engines. A block runs its warps as
   fibers: a warp reaching a barrier performs [Sync] and is parked until
   every warp of the block has arrived, then the parked warps resume in
   arrival order. *)

open Ppat_gpu

type _ Effect.t += Sync : unit Effect.t

(* one warp reaching the barrier: [converged] says its active mask is
   the warp's full lane set, which a block-wide barrier requires *)
let sync kname (stats : Stats.t) ~converged =
  if not converged then
    Simt_error.trap "kernel %s: __syncthreads under divergent control flow"
      kname;
  stats.syncs <- stats.syncs +. 1.;
  stats.warp_insts <- stats.warp_insts +. 1.;
  Effect.perform Sync

(* run warps [0 .. nwarps-1] of one block, [warp w] executing warp [w] *)
let run_block nwarps (warp : int -> unit) =
  let waiting = ref [] in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sync ->
            Some
              (fun (cont : (a, unit) Effect.Deep.continuation) ->
                waiting := (fun () -> Effect.Deep.continue cont ()) :: !waiting)
          | _ -> None);
    }
  in
  for w = 0 to nwarps - 1 do
    Effect.Deep.match_with warp w handler
  done;
  (* a resumed continuation still runs under its original handler, so a
     later barrier parks it in [waiting] again *)
  while !waiting <> [] do
    let batch = List.rev !waiting in
    waiting := [];
    List.iter (fun resume -> resume ()) batch
  done
