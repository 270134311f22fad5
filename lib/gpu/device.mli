(** GPU device description (paper Section II).

    All hardware characteristics consumed by the mapping analysis (warp
    size, thread/block limits, DOP targets) and by the timing model
    (bandwidth, latency, issue rate) live here. The constants of {!k20c}
    approximate the NVIDIA Tesla K20c used in the paper's evaluation; they
    are fitted once against the paper's headline ratios and are not
    tuned per benchmark. *)

type t = {
  dname : string;
  sm_count : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  max_threads_per_block : int;
  max_block_dim : int;  (** per-dimension block size limit *)
  warp_size : int;
  clock_ghz : float;
  dram_gbps : float;  (** global memory bandwidth, GB/s *)
  mem_latency : float;  (** global memory latency, cycles *)
  issue_rate : float;  (** warp instructions issued per cycle per SM *)
  transaction_bytes : int;  (** DRAM transaction granularity (coalescing) *)
  departure_cycles : float;
      (** cycles between consecutive memory transactions leaving one SM
          (Hong & Kim's departure delay) *)
  smem_banks : int;
  kernel_launch_us : float;  (** fixed host-side cost per kernel launch *)
  block_dispatch_cycles : float;  (** scheduling cost per thread block *)
  malloc_cycles : float;
      (** serialised cost of one device-side [malloc] (Section V-A) *)
  atomic_extra_cycles : float;
      (** additional cycles per conflicting atomic within a warp *)
  barrier_cycles : float;
      (** issue-pipeline cost of one [__syncthreads] per warp *)
  l2_bytes : int;  (** unified L2 cache capacity *)
  l2_gbps : float;  (** L2 bandwidth for hits *)
  l2_slices : int;
      (** number of address-hashed L2 slices — one per memory partition,
          like the hardware's banked L2 (K20c: 5 x 256 KB over a 320-bit
          bus). The simulator shards its cache table the same way so
          slice state is independent per address slice. *)
}

val k20c : t
(** Tesla K20c: 13 SMs, 2048 threads/SM, 16 blocks/SM, 1024 threads/block,
    32-wide warps, 0.706 GHz, 208 GB/s. *)

val c2050 : t
(** Tesla C2050 (Fermi, mentioned in paper Section II): 14 SMs, 1536
    threads/SM, 8 blocks/SM, 1.15 GHz, 144 GB/s, dual-issue. Included to
    show the analysis re-targeting: MIN_DOP/MAX_DOP and block limits come
    from the device, so split factors and spans change with it. *)

val min_dop : t -> int
(** Minimum desired degree of parallelism: [sm_count * max_threads_per_sm]
    (paper Section IV-D: 13 * 2048 for the K20c). *)

val max_dop : t -> int
(** Maximum desired DOP: [100 * min_dop] (paper Section IV-D). *)

val min_block_size : int
(** Soft global constraint threshold on threads per block (Table II). *)

val pp : Format.formatter -> t -> unit
