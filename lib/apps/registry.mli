(** The bundled application registry, shared by the `ppat` CLI, perfbench
    and the mapping service. *)

val all : (string * (unit -> App.t)) list
(** Name to (thunked) constructor, in presentation order. *)

val names : string list

val find : string -> App.t option
(** Build the named app, or [None] for unknown names. *)
