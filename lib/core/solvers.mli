(** Merge-key solvers.

    The table computations all reduce to one question: given two
    references of a UGS with constants [c_from] and [c_to], at which
    unroll offset does a copy of one coincide (temporally or spatially,
    within the localized space) with a copy of the other?  The answer is
    the *merge key*: the unroll-dimension component [m] of an integral
    solution of [H (m + x) = c_to - c_from] with [x] in the localized
    space, together with the innermost component [delta] that positions
    the two value streams relative to each other in time. *)

open Ujam_linalg

type key = {
  m : Vec.t;    (** support on the unroll levels; may be negative *)
  delta : int;  (** innermost-loop offset of the solution *)
}

type t = c_from:Vec.t -> c_to:Vec.t -> key option
(** A solver prepares [H] against [L] joined with the unroll levels once
    ({!Subspace.prepare}); each query is one {!Subspace.solve}. *)

val temporal :
  h:Mat.t -> localized:Subspace.t -> unroll_levels:int list -> t
(** Solver for group-temporal coincidence ([H] as is). *)

val spatial :
  h:Mat.t -> localized:Subspace.t -> unroll_levels:int list -> t
(** Solver for group-spatial coincidence: [H] with the contiguous row
    zeroed and the difference's contiguous component dropped. *)

val components : t -> dim:int -> (Vec.t * 'a) list -> ('a * key) list list
(** Merge components of items given with their constant vectors: two
    items share a component when [solver] connects their constants.
    Each item comes with its key relative to its component's root (the
    first item placed, whose key is zero); components and members keep
    input order. *)

val reducer : a:Mat.t -> localized:Subspace.t -> int array -> int
(** [reducer ~a ~localized key] reduces the key [A p] of a copy point
    [p], in place, and returns its shift.  Copies of one reference at
    offsets [p] and [r] denote the same group iff some integral [x] in
    the localized space satisfies [A x = A (p - r)]: for
    [localized = span{b}] a lattice equivalence, which holds iff the
    reduced keys are equal, and then [x]'s innermost component (the time
    shift between the copies' value streams) is [shift p - shift r].
    The reduced key is [A p] minus [t (A b)], [t] the floored quotient
    on the first non-zero coordinate of [A b], and the shift is
    [t b_(d-1)]; if [A b = 0] or [localized] is trivial, the key is
    [A p] and the shift 0.  [A] is [H], or [H_s]
    ({!Ujam_reuse.Selfreuse.spatial_matrix}) for spatial classes.
    @raise Invalid_argument if [localized] has dimension above 1. *)

val point_classes :
  a:Mat.t -> localized:Subspace.t -> Unroll_space.t -> Vec.t list ->
  int array array * int array * int array
(** [(keys, cls, shift)]: the copy points [m + o] ([m] the [i]-th of
    the list, [o] at position [p] of the space, entry [i * card + p]) in
    classes by their {!reducer} keys over [a], numbered in order of
    first appearance, each class's reduced key, and each point's shift
    relative to its class's first point.  No key is allocated per
    point. *)

val kernel_moves :
  h:Mat.t -> localized:Subspace.t -> unroll_levels:int list -> Vec.t list
(** Generators of the self-merge lattice: directions in the unroll
    dimensions along which copies of a single reference coincide
    (projections of [ker H ∩ (L ⊕ U)] onto the unroll levels).  Pass
    [H_s] for the spatial variant. *)
