(** Host-side data: concrete buffer contents fed to both the CPU reference
    interpreter and the simulated GPU, plus runtime parameter environments. *)

type buf =
  | F of float array  (** contents of an [F64] buffer *)
  | I of int array  (** contents of an [I32] or [Bool] buffer *)

type data = (string * buf) list

val params_of : Pat.prog -> (string * int) list -> (string * int) list
(** Merge caller-supplied parameter bindings over the program defaults;
    caller bindings win. *)

val buffer_elems : (string * int) list -> Pat.buffer -> int
(** Total element count of a buffer under a parameter environment. *)

val alloc_all : Pat.prog -> (string * int) list -> data -> data
(** Allocation plan for a run: every program buffer, taking contents from
    [data] when provided (shapes validated) and zero-filled otherwise.
    The result is freshly copied so callers can reuse [data] across runs. *)

val get_f : data -> string -> float array
(** @raise Invalid_argument if absent or of integer type. *)

val get_i : data -> string -> int array
(** @raise Invalid_argument if absent or of float type. *)

val copy : data -> data

val approx_equal : ?eps:float -> buf -> buf -> bool
(** Element-wise comparison; floats compared with relative/absolute
    tolerance [eps] (default 1e-9), suitable for checking the simulated GPU
    result against the CPU oracle when reduction orders differ. *)
