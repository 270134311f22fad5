(** Sequential reference interpreter of pattern-IR programs.

    This is the semantic oracle of the whole reproduction: every simulated
    GPU execution is checked against it, and its operation counts feed the
    multi-core CPU cost model used as the baseline of paper Figure 14.

    {b Resolve, then run.} Each {!run} call first resolves the program
    once: buffer names become slots of a per-run buffer table with
    precomputed strides, and variables, loop and pattern indices, reducer
    operands, host-loop variables, parameters and local arrays become slots
    of typed int/float frames, following the program's lexical scoping.
    Every expression is classified as int, float or bool and turned into a
    closure. The run phase executes those closures with no name lookups and
    no boxed scalars. Buffer extents are read once, from the run's
    parameters, when the buffers are allocated. Nothing outlives the call,
    so concurrent runs (e.g. on several domains) are independent. *)

type counts = {
  ops : float;  (** scalar arithmetic operations executed *)
  bytes : float;  (** bytes read + written on global buffers *)
}

type site = {
  name : string;
      (** the buffer, local array, variable, parameter or pattern the fault
          concerns (an expression's text when it concerns a computation) *)
  index : int option;  (** the offending index, when there is one *)
}

exception Trap of site * string
(** A semantic fault of the program or its inputs: the site and what went
    wrong. A printer is registered, so [Printexc.to_string] shows
    ["CPU oracle: name[index]: message"]. *)

val run :
  ?params:(string * int) list ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Host.data ->
  Ppat_ir.Host.data * counts
(** Execute the whole program (all host steps) over the given input data.
    Buffers absent from the input are zero-initialised. Returns the final
    contents of every program buffer, in program buffer order, together
    with execution counts.

    Filter outputs are compacted in index order; group-by outputs are
    ordered by key segment and, within a segment, by input index — the
    canonical orders against which unordered GPU results are normalised.

    @raise Trap on every semantic fault: an out-of-bounds access (global
    or local), an unknown buffer, an unbound variable, parameter or
    pattern index, a type confusion, division by zero, a group key out of
    range, a runaway [While], or input data of the wrong shape or type. A
    fault in code that never executes raises nothing. *)
