(** Static access-site numbering for Kir kernels.

    A site is one syntactic occurrence of a costed operation — a global
    or shared load/store, an atomic, or a divergible branch — with dense
    ids in a canonical order shared by both execution engines, plus
    provenance (buffer name, structural path) for reports. *)

type kind =
  | Load_global
  | Store_global
  | Load_shared
  | Store_shared
  | Atomic
  | Branch

val kind_name : kind -> string

type info = {
  skind : kind;
  sbuf : string;  (** buffer / shared-array name; [""] for branches *)
  spath : string;  (** structural path, e.g. ["body/for(i_rows)/if"] *)
}

(** Per-statement annotation mirroring [Kir.stmt]; each [int array] holds
    the site ids of one warp flush group in record order, so slot [s] of
    the group belongs to element [s]. *)
type ann =
  | A_simple of int array
  | A_atomic of int array * int
  | A_if of int array * int * ann list * ann list
  | A_for of int array * int array * int array * int * ann list
  | A_while of int array * int * ann list
  | A_none

val annotate : Kir.kernel -> info array * ann list
(** Deterministic: the same kernel always yields the same numbering. *)

val count : Kir.kernel -> int

val no_sites : int array
(** The empty site array (routes attribution to the overflow row). *)
