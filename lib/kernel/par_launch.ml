(* The multi-domain half of a kernel launch, shared by both engines.

   The grid is cut into a few chunks per worker (so an expensive tail
   block does not leave the other domains idle); chunk boundaries depend
   only on [jobs], so the merged result is reproducible for a given jobs
   value. Linear block ids walk the grid x-innermost, matching the
   engines' serial nests.

   Each chunk gets its own stats, its own attribution table and a [Log]
   L2 sink (see Warp_access), so no mutable simulation state crosses
   domains. The merge runs in chunk order: counters (aggregate and
   per-site) are additive, then the L2 logs replay in serial block order,
   so hit accounting matches jobs = 1 exactly. *)

open Ppat_gpu

let run ~jobs ~nblocks ?attr dev mem ~setup ~run_block =
  let nchunks = min nblocks (jobs * 4) in
  let results =
    Ppat_parallel.pool_run ~jobs nchunks (fun c ->
        Ppat_metrics.Metrics.span ~cat:"chunk" "sim chunk" (fun () ->
            let log = Warp_access.acquire_log () in
            let wattr = Option.map Site_stats.create_like attr in
            let stats, st = setup (Warp_access.Log log) wattr in
            let lo = c * nblocks / nchunks
            and hi = (c + 1) * nblocks / nchunks in
            Ppat_metrics.Metrics.incr Engine_metrics.sim_chunks;
            Ppat_metrics.Metrics.observe Engine_metrics.chunk_blocks
              (float_of_int (hi - lo));
            for b = lo to hi - 1 do
              run_block st b
            done;
            (stats, wattr, log)))
  in
  let stats = Stats.create () in
  Array.iter (fun (s, _, _) -> Stats.add stats s) results;
  (match attr with
   | None -> ()
   | Some a ->
     Array.iter (fun (_, w, _) -> Option.iter (Site_stats.add a) w) results);
  let lines = ref 0 in
  Ppat_metrics.Metrics.span ~cat:"replay" "l2 replay" (fun () ->
      Array.iter
        (fun (_, _, lg) ->
          lines := !lines + Warp_access.replay_log ?attr dev mem stats lg;
          Warp_access.release_log lg)
        results);
  Ppat_metrics.Metrics.add Engine_metrics.replayed_l2_lines
    (float_of_int !lines);
  stats
