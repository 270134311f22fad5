(** Kernel IR: the CUDA-shaped executable target of code generation.

    A kernel describes one GPU grid launch in terms of per-thread code over
    thread/block indices, exactly like a CUDA [__global__] function. The
    code generator lowers a mapped pattern nest into this IR (paper
    Section IV-E); the SIMT interpreter ({!Interp}) executes it warp by
    warp; {!Ppat_codegen.Cuda_emit} prints it as CUDA C. *)

type dim = X | Y | Z

type exp =
  | Int of int
  | Float of float
  | Bool of bool
  | Reg of int  (** per-thread register, see {!Rb} *)
  | Tid of dim  (** threadIdx *)
  | Bid of dim  (** blockIdx *)
  | Bdim of dim  (** blockDim *)
  | Gdim of dim  (** gridDim *)
  | Param of string  (** launch-time integer parameter *)
  | Bin of Ppat_ir.Exp.binop * exp * exp
  | Un of Ppat_ir.Exp.unop * exp
  | Cmp of Ppat_ir.Exp.cmpop * exp * exp
  | Select of exp * exp * exp
      (** predicated select; {e both} arms are evaluated (no branch) *)
  | Load_g of string * exp  (** global buffer element read *)
  | Load_s of string * exp  (** shared-memory element read *)
  | Shfl_down of exp * exp
      (** [Shfl_down (v, d)]: the value of [v] as evaluated at lane
          [lane + d]. Shuffles require the full warp converged (both
          engines trap otherwise); an out-of-range or non-existent source
          lane yields the calling lane's own value. The operands must be
          memory- and shuffle-free ({!validate}). Every lane reads its
          source before any lane's register write lands, as in CUDA. *)
  | Shfl_idx of exp * exp  (** source lane given absolutely *)

type stmt =
  | Set of int * exp
  | Store_g of string * exp * exp  (** buffer, element index, value *)
  | Store_s of string * exp * exp
  | Atomic_add_g of string * exp * exp
      (** atomic read-modify-write accumulate on a global element *)
  | Atomic_add_ret of { reg : int; buf : string; idx : exp; value : exp }
      (** like [Atomic_add_g] but captures the pre-add value in [reg] —
          the append primitive of Filter and Group_by scatter *)
  | If of exp * stmt list * stmt list
  | For of { reg : int; lo : exp; hi : exp; step : exp; body : stmt list }
      (** per-thread loop; bounds may differ across lanes (divergence) *)
  | While of exp * stmt list
  | Sync  (** __syncthreads(): block-wide barrier *)
  | Malloc_event
      (** models a per-thread dynamic allocation; executing threads each
          account one device-malloc in the statistics (Section V-A) *)

type smem_decl = { sname : string; selem : Ppat_ir.Ty.scalar; selems : int }

type kernel = {
  kname : string;
  nregs : int;
  reg_names : string array;  (** for CUDA emission and diagnostics *)
  reg_types : Ppat_ir.Ty.scalar array;  (** inferred, for CUDA emission *)
  smem : smem_decl list;
  body : stmt list;
}

type launch = {
  kernel : kernel;
  grid : int * int * int;
  block : int * int * int;
  kparams : (string * int) list;
}

(** Register allocator used while building a kernel. *)
module Rb : sig
  type t

  val create : unit -> t

  val reg : t -> string -> int
  (** Intern a named register: the same name yields the same slot. *)

  val fresh : t -> string -> int
  (** Always allocate a new slot (the name is suffixed to stay unique). *)

  val count : t -> int
  val names : t -> string array

  val set_type : t -> int -> Ppat_ir.Ty.scalar -> unit
  (** Record the value type of a register (defaults to [I32]). *)

  val types : t -> Ppat_ir.Ty.scalar array
end

val dim_name : dim -> string
(** "x", "y" or "z". *)

val threads_per_block : launch -> int
val blocks : launch -> int

val geometry : launch -> Ppat_gpu.Timing.geometry

val has_global_atomics : kernel -> bool
(** Whether the kernel issues [Atomic_add_g] or [Atomic_add_ret]: its
    blocks observe each other through the atomics' results, so the
    parallel simulator runs it serially ({!Interp.effective_jobs}). *)

val validate : kernel -> (unit, string) result
(** Checks register slots are within [nregs] (including the result
    register of [Atomic_add_ret] at any nesting depth), shared accesses
    target declared shared arrays, statically-known [For] steps are
    non-zero, and warp-primitive operands are memory- and shuffle-free. *)

val pp_kernel : Format.formatter -> kernel -> unit
(** Debug listing (CUDA emission lives in the codegen library). *)
