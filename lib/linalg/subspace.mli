(** Rational vector subspaces of Q^n with primitive-integer canonical
    bases.

    Reuse analysis manipulates subspaces of the iteration space: the
    localized vector space, self-temporal ([ker H]) and self-spatial
    ([ker H_s]) reuse spaces, and their intersections.  A subspace is
    stored as the reduced row echelon form of its spanning set, rescaled
    to primitive integer rows, so structural equality coincides with
    subspace equality.  A {!prepared} solve eliminates once in [Rat] and
    answers every right-hand side in [int] arithmetic. *)

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

val kernel_dim : Mat.t -> t -> int
(** [kernel_dim h l] is [dim (ker H ∩ L)], as [dim L - rank (H B)] for
    the basis [B] of [L]: over a coordinate span [K] that is [|K|] minus
    the rank of [H]'s columns [K].  No intersection is built. *)

val equal : t -> t -> bool

val intersect : t -> t -> t
val join : t -> t -> t
(** Smallest subspace containing both (span of the union of bases). *)

type prepared
(** [H] eliminated against one subspace [L]: everything solving
    [H x = c] in [L] computes that does not depend on [c].  All members of a uniformly
    generated set share [H], so their reuse tests in one localized space
    share one [prepared]. *)

val prepare : Mat.t -> t -> prepared
(** [prepare h l] factors [H] against [L]: Gauss-Jordan elimination
    ({!Mat.rref_rat}) on [H B | I], pivoting only on the [H B] columns
    (the pivots a Gauss-Jordan solve of [H B | c] finds for any [c]), keeps
    the row operations [E] (the [I] half) as integers: its rows past the
    rank, denominators cleared, and each row [X_i = D_i (B E_p)_i] for the
    pivot rows [E_p] and the lcm [D_i] of the denominators that row uses.
    It runs at the first non-zero [c]; an [int] overflow scaling it, or
    applying it to a [c] whose products pass [max_int], raises
    [Invalid_argument]. *)

type outcome =
  | No_solution  (** no rational [x] in [L] *)
  | Fractional  (** a rational witness, not integral *)
  | Integral of Vec.t  (** the integral witness [x] *)

val outcome : prepared -> int array -> outcome
(** [x_i = (B y)_i = X_i c / D_i] for the rational solution [y] of
    [H B y = c] with free variables zero (over the full space, the one
    Gauss-Jordan on [H | c] finds), if [c] has a zero dot product with
    every cleared row past the rank. *)

val solve : prepared -> Vec.t -> Vec.t option
(** The [Integral] witness of {!outcome}: some integral [x] in [L] with
    [H x = c].  The witness search is exact for the separable-SIV access
    matrices the paper's algorithms target (Sec. 3.5); for general
    matrices it is sound but may miss non-integer parameterisations. *)

val solvable_diff : prepared -> truncate:bool -> int array -> int array -> bool
(** [solvable_diff p ~truncate c1 c2] is [solve p c <> None] for
    [c = c1 - c2] with its first component zeroed when [truncate] (the
    spatial test), read in place: it allocates nothing. *)

val pp : Format.formatter -> t -> unit
