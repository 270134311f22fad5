(** Canonical structural digests for pattern nests and whole programs.

    The mapping search ({!Search.search} via {!Strategy.decide}) is a pure
    function of the analysed nest, the resolved launch parameters, the
    device, and the cost model. Two requests whose nests differ only by
    pattern ids, label strings, or the names of variables, local arrays and
    buffers therefore get the same decision — and the serving layer wants
    to pay for the search once. These digests are the cache keys.

    Canonicalisation renumbers pattern ids in pre-order, drops labels,
    numbers variables and pattern-local arrays by binding occurrence
    (scope-aware, so shadowing never conflates distinct programs), and
    numbers global buffers by first use while folding in everything the
    analysis reads from them: element type, parameter-resolved dimensions,
    layout and input/output/temp kind. Runtime parameters are resolved to
    their concrete values (two different problem sizes are two different
    keys — the constraint weights differ), keeping the size-class tag
    (const / param / launch-expression / dynamic) because span hardness
    depends on {e when} a size is known, not just on its value.

    Soundness direction: equal keys must imply equal search results.
    Unknown names fall back to their literal spelling, which can only
    cause a cache miss, never a wrong hit. *)

val nest_repr :
  ?params:(string * int) list ->
  ?bind:string ->
  ?shuffle:bool ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Pat.pattern ->
  string
(** Canonical string for one top-level nest as the analysis sees it:
    the nest structure, the shapes of every buffer it touches, the
    resolved parameters it depends on, the bound output buffer, the
    device name and the run's [shuffle] bit (default [false]), which the
    analytical models price. [params] should be the environment handed to
    {!Collect.collect} (defaults merged, host-loop variables bound).
    Mainly exposed for tests; use {!nest_key} as a cache key. *)

val nest_key :
  ?params:(string * int) list ->
  ?bind:string ->
  ?shuffle:bool ->
  Ppat_gpu.Device.t ->
  Ppat_ir.Pat.prog ->
  Ppat_ir.Pat.pattern ->
  string
(** MD5 hex digest of {!nest_repr}. *)

val prog_repr : ?params:(string * int) list -> Ppat_ir.Pat.prog -> string
(** Canonical string for a whole program under a parameter environment:
    every buffer in declaration order (shape-resolved), every host step,
    every launched nest. Program and buffer names are dropped; [params]
    are merged over the program defaults. Two programs with equal reprs
    run the same host schedule over identically-shaped memory, which is
    the validity condition for replaying a staged plan. *)

val prog_key : ?params:(string * int) list -> Ppat_ir.Pat.prog -> string
(** MD5 hex digest of {!prog_repr}. *)

val digest : string -> string
(** MD5 hex of an arbitrary string — for composing cache keys out of a
    canonical repr plus engine / strategy / model tags. *)
