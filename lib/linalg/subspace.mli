(** Rational vector subspaces of Q^n with primitive-integer canonical
    bases.

    Reuse analysis manipulates subspaces of the iteration space: the
    localized vector space, self-temporal ([ker H]) and self-spatial
    ([ker H_s]) reuse spaces, and their intersections.  A subspace is
    stored as the reduced row echelon form of its spanning set, rescaled
    to primitive integer rows, so structural equality coincides with
    subspace equality. *)

type t

val of_basis : dim:int -> Vec.t list -> t
(** Subspace spanned by the given vectors (not necessarily independent). *)

val full : int -> t
val trivial : int -> t

val span_dims : dim:int -> int list -> t
(** [span_dims ~dim ds] is the coordinate subspace spanned by the
    standard basis vectors [e_d] for [d] in [ds] (in any order, repeats
    allowed; levels outside [0, dim) are ignored), built without
    elimination. *)

val ambient_dim : t -> int
val dim : t -> int
val basis : t -> Vec.t list
val is_trivial : t -> bool
val is_full : t -> bool

val mem : Vec.t -> t -> bool

val kernel_dim : Mat.t -> t -> int
(** [kernel_dim h l] is [dim (ker H ∩ L)], as [dim L - rank (H B)] for
    the basis [B] of [L]: over a coordinate span [K] that is [|K|] minus
    the rank of [H]'s columns [K].  No intersection is built. *)

val equal : t -> t -> bool
val subset : t -> t -> bool

val intersect : t -> t -> t
val join : t -> t -> t
(** Smallest subspace containing both (span of the union of bases). *)

val solvable_in : Mat.t -> Vec.t -> t -> bool
(** [solvable_in h c l] decides whether some [x] in [l] satisfies
    [h x = c] with [x] integral.  The witness search is exact for the
    separable-SIV access matrices the paper's algorithms target
    (Sec. 3.5); for general matrices it is sound but may miss non-integer
    parameterisations. *)

val solution_in : Mat.t -> Vec.t -> t -> Vec.t option
(** Like {!solvable_in} but returns the witness [x]: [x = B y] for the
    basis [B] of the subspace and the particular rational solution [y] of
    [H B y = c] with free variables zero.  It is [solve (prepare h l) c]. *)

type prepared
(** [H] eliminated against one subspace [L]: everything {!solution_in}
    computes that does not depend on [c].  All members of a uniformly
    generated set share [H], so their reuse tests in one localized space
    share one [prepared]. *)

val prepare : Mat.t -> t -> prepared
(** [prepare h l] factors [H] against [L]: Gauss-Jordan elimination
    ({!Mat.rref_rat}) on [H B | I], pivoting only on the [H B] columns,
    recording the rank, the pivot columns and the row operations [E]
    (the [I] half).  The pivots are those {!Mat.solve_rat} finds on
    [H B | c] for any [c].  The elimination runs once, at the first
    non-zero [c] solved. *)

val solve : prepared -> Vec.t -> Vec.t option
(** [solve (prepare h l) c] is [solution_in h c l], bit for bit: [E c]
    must vanish past the rank, the pivot rows give [y], and [x = B y]
    must be integral. *)

val solve_rat : prepared -> Vec.t -> Rat.t array option
(** The rational witness [B y] before the integrality check.  Over the
    full space ([B] the identity) it is [Mat.solve_rat h c]. *)

val pp : Format.formatter -> t -> unit
