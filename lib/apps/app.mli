(** Uniform description of a benchmark application: a pattern-IR program
    together with its workload generator and validation policy. The
    experiment harness runs each app through the CPU oracle and the GPU
    simulator under every strategy of interest. *)

type t = {
  name : string;
  prog : Ppat_ir.Pat.prog;
  params : (string * int) list;  (** experiment parameter values *)
  gen : (string * int) list -> Ppat_ir.Host.data;
      (** build input buffers for resolved parameters (deterministic) *)
  unordered : string list;
      (** output buffers whose element order is nondeterministic on the GPU
          (atomic-append filters, group-by values) *)
  eps : float;  (** comparison tolerance against the CPU oracle *)
  param_rules : (string * int) list -> ((string * int) list, string) result;
      (** the app's own parameter invariants: given resolved parameters,
          the values of the parameters derived from others (hotspot's
          [NM1 = N - 1]), or an error naming the parameter that breaks an
          invariant. Arithmetic only — no input generation. *)
}

val make :
  ?params:(string * int) list ->
  ?unordered:string list ->
  ?eps:float ->
  ?param_rules:((string * int) list -> ((string * int) list, string) result) ->
  name:string ->
  gen:((string * int) list -> Ppat_ir.Host.data) ->
  Ppat_ir.Pat.prog ->
  t

val resolved_params : t -> (string * int) list
(** App params over program defaults. *)

val input_data : t -> Ppat_ir.Host.data
(** Generate the workload for the app's own parameters. *)

val with_params : t -> (string * int) list -> (t, string) result
(** [with_params app overrides] puts [overrides] over the app's
    parameters and applies its [param_rules]: derived parameters the
    overrides did not send are re-derived, and [Error] names an unknown
    parameter, a zero size, a derived one sent with the wrong value, or
    one that breaks the app's invariants. *)
