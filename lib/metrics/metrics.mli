(** Process-wide metrics registry, split into per-domain shards.

    Instruments (counters, histograms) are created once by name + label
    set and held by the caller; updates are single unlocked array stores
    into a per-domain shard, so hot paths never allocate or contend.
    Reads sum over the shards and are exact once writers have quiesced. *)

type counter

val counter : ?labels:(string * string) list -> string -> counter
(** Find or create the counter with this name and label set. Takes the
    registry lock — call it at setup time, not in hot loops. *)

val add : counter -> float -> unit
val incr : counter -> unit

val value : counter -> float
(** Sum of the counter over all shards. *)

type histogram

val histogram :
  ?labels:(string * string) list -> ?bounds:float array -> string -> histogram
(** Find or create a histogram. [bounds] are the inclusive upper bounds of
    every bucket but the implicit overflow bucket; the first registration
    of a name fixes them. *)

val observe : histogram -> float -> unit

(** {2 Wall-clock spans}

    Spans time simulator phases (search, staging, chunk execution, L2
    replay) for the Chrome-trace exporter, tagged with the recording
    domain so each worker gets its own trace row. Recording is off by
    default; when off, [span] is a direct call with no overhead. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_domain : int;
  sp_start : float;
  sp_stop : float;
}

val set_span_recording : bool -> unit
val span : ?cat:string -> string -> (unit -> 'a) -> 'a
val spans : unit -> span list
(** Recorded spans in chronological (recording) order. *)

(** {2 Snapshots} *)

type hist_view = {
  hv_bounds : float array;
  hv_counts : float array;  (** one per bound, plus the overflow bucket *)
  hv_sum : float;
  hv_count : float;
}

type value_view = Counter of float | Histogram of hist_view

type entry = {
  name : string;
  labels : (string * string) list;
  v : value_view;
}

val snapshot : unit -> entry list
(** All registered instruments, merged over shards, sorted by name then
    labels. *)

val diff : entry list -> entry list -> entry list
(** [diff before after] is the per-instrument delta between two
    snapshots, matched by (name, labels) — what the work between the two
    snapshots contributed. Instruments absent from [before] count from
    zero; all-zero deltas are dropped. The serve layer wraps each request
    in snapshot-and-delta so one request's counters do not bleed into
    another request's profile JSON. *)

val reset : unit -> unit
(** Zero every instrument and drop recorded spans (registrations are
    kept). Meant for tests and for the start of a profiled run. *)
