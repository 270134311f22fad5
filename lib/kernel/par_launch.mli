(** Chunked multi-domain block execution with a deterministic merge,
    shared by the reference and the compiled engine. Each engine keeps its
    own serial path; only the parallel fan-out lives here. *)

open Ppat_gpu

val run :
  jobs:int ->
  nblocks:int ->
  ?attr:Site_stats.t ->
  Device.t ->
  Memory.t ->
  setup:(Warp_access.sink -> Site_stats.t option -> Stats.t * 'st) ->
  run_block:('st -> int -> unit) ->
  Stats.t
(** [run ~jobs ~nblocks ?attr dev mem ~setup ~run_block] runs blocks
    [0 .. nblocks-1] (linear ids, x innermost) in chunks on [jobs]
    domains. [setup sink wattr] builds one chunk's private engine state
    around a fresh stats record, which it returns first; the Warp_access
    scratch it creates must use the given [Log] [sink] and attribution
    table. [run_block st b] executes block [b] on that state. The chunks'
    counters and attribution are merged into [attr] and the returned
    stats, and their L2 logs replayed against [mem] in block order, so
    every counter is bit-identical to a serial run. *)
