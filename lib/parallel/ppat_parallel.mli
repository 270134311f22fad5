(** Process-wide worker-domain pool shared by the bench harness (app-level
    fan-out) and the simulator (intra-launch block fan-out).

    The pool is persistent: worker domains are spawned once, parked on a
    condition variable between batches, and shut down automatically at
    process exit. Items are claimed work-stealing style from an atomic
    counter, so uneven item costs do not idle the other domains. *)

val max_jobs : int
(** Hard upper clamp on [jobs] (64). *)

val default_jobs : unit -> int
(** One worker per available core ([Domain.recommended_domain_count]),
    clamped to [max_jobs]. *)

val pool_run : jobs:int -> int -> (int -> 'a) -> 'a array
(** [pool_run ~jobs n task] runs [task 0 .. task (n-1)] on at most [jobs]
    domains (the calling domain included) and returns the results by index.
    [jobs <= 1] runs serially, in index order, on the calling domain with
    no pool interaction at all. Tasks must be independent. If any task
    raises, the exception of the lowest-index failing task is re-raised
    after the whole batch has drained.

    Reentrant: a task may itself call [pool_run]; the nested call
    participates in draining its own batch, so it completes even when
    every worker is busy (degrading to serial, never deadlocking). *)

val with_captured : (unit -> unit) -> string
(** Run [f] with this domain's [Format.std_formatter] redirected into a
    private buffer and return what it printed. The standard formatter is
    domain-local in OCaml 5, so concurrent captures on different pool
    workers cannot interleave. *)
