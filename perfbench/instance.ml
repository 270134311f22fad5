(* A workload after set-up: what the run loop calls to warm up and to run
   one timed pass. [traced] selects the path whose layers are spanned. *)

type t = {
  warmup : Acc.t -> traced:bool -> unit;
  round : Acc.t -> traced:bool -> int;  (* candidates completed *)
  deterministic : unit -> Ppat_gpu.Stats.t * float list;
      (* aggregate statistics and modelled seconds of the warm-up's
         results: fixed by the seed, whatever the host *)
}
