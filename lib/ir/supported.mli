(** The modelled subscript class (the paper's Sec. 3.5), as a check any
    layer can consult.

    The reuse model covers affine subscripts over unit-step loops, with
    the doubled (multigrid restriction/interpolation) stride as the
    largest modelled coefficient and constants in a range the analysis
    can do its arithmetic in.  This lives in the IR layer — below
    both the engine (which wraps violations in typed pipeline errors)
    and the workload generator (which must never emit, or must tag,
    nests outside the class) — so the producers and consumers of nests
    agree on one definition of "supported".  Violations are located:
    a bad coefficient names the offending reference site and subscript
    dimension, not just the nest.  {!violations} is the one scan;
    {!find_violation}, {!check} and the analyzer's UJ004/UJ005/UJ031
    rules all read it. *)

val max_coefficient : int
(** Largest modelled subscript coefficient magnitude (2: the doubled
    multigrid stride, the largest the paper's subscript class uses). *)

val max_constant : int
(** Largest modelled magnitude of a subscript constant or of a loop
    bound's constant term: [K = 2^20], so a million-iteration loop is
    inside.  Why this keeps the analysis in [int] ([max_int >= 2^62 - 1]):
    with [|a| <= 2], an index of a constant-bound loop lies in [±K], a
    subscript value of a [d]-deep nest in [±(2d+1)K], and a difference
    of two (a dependence right-hand side, a reuse offset, an edge
    distance) in [±2(2d+1)K]; an unroll shift [a * u], [u] below the
    trip count, adds at most [2(2K+1)].  A product of two such values,
    as the solvers and dependence tests form them, stays below
    [4(2d+1)^2 K^2 < 2^62] for [d <= 511].  An address is bounded by
    its array's element count, which the native emitter checks against
    its limit before forming one; the simulator forms addresses in
    modular arithmetic on purpose. *)

type violation =
  | Bad_step of Loop.t
      (** a loop with a non-unit step *)
  | Bad_bound of { loop : Loop.t; bound : int }
      (** a loop bound whose constant term [bound] has
          [|bound| > max_constant] *)
  | Bad_coefficient of { site : Site.t; dim : int; coef : int }
      (** subscript [dim] of the reference at [site] has coefficient
          [coef] with [|coef| > max_coefficient] *)
  | Bad_constant of { site : Site.t; dim : int; const : int }
      (** subscript [dim] of the reference at [site] has constant
          [const] with [|const| > max_constant] *)

val violations : Nest.t -> violation list
(** Every violation: loops in order (step, then lower and upper
    bound), then sites in textual order, each subscript dimension's
    coefficients before its constant. *)

val find_violation : Nest.t -> violation option
(** The first of {!violations}. *)

val message : Nest.t -> violation -> string
(** Human-readable description, prefixed with the nest name. *)

val check : Nest.t -> (unit, string) result
(** [Ok ()] iff the nest is inside the modelled class; otherwise the
    {!message} of the first violation. *)
