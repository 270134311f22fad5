(** The one explicit encoding behind every digest and shape key: values
    in a fixed order, each self-delimiting — ints in 7-bit groups (one
    byte below 128), floats as their 64 IEEE bits ([0.0] and [-0.0]
    differ), strings length-prefixed — never decimal text, never a memory
    image. Equal bytes mean equal values, so a digest moves only when an
    encoded value moves, and digests compare across builds. *)

type t

val create : unit -> t
val int : t -> int -> unit
val float : t -> float -> unit
val string : t -> string -> unit

val data : t -> Host.data -> unit
(** Every buffer in list order: name, element kind, length, elements. *)

val digest : t -> string
(** MD5 hex of everything written so far. *)
