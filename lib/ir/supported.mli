(** The modelled subscript class (the paper's Sec. 3.5), as a check any
    layer can consult.

    The reuse model covers affine subscripts over unit-step loops, with
    the doubled (multigrid restriction/interpolation) stride as the
    largest modelled coefficient.  This lives in the IR layer — below
    both the engine (which wraps violations in typed pipeline errors)
    and the workload generator (which must never emit, or must tag,
    nests outside the class) — so the producers and consumers of nests
    agree on one definition of "supported".  Violations are located:
    a bad coefficient names the offending reference site and subscript
    dimension, not just the nest. *)

val max_coefficient : int
(** Largest modelled subscript coefficient magnitude (2: the doubled
    multigrid stride, the largest the paper's subscript class uses). *)

type violation =
  | Bad_step of Loop.t
      (** a loop with a non-unit step *)
  | Bad_coefficient of { site : Site.t; dim : int; coef : int }
      (** subscript [dim] of the reference at [site] has coefficient
          [coef] with [|coef| > max_coefficient] *)

val find_violation : Nest.t -> violation option
(** First violation in loop order, then textual site order. *)

val message : Nest.t -> violation -> string
(** Human-readable description, prefixed with the nest name. *)

val check : Nest.t -> (unit, string) result
(** [Ok ()] iff the nest is inside the modelled class. *)
