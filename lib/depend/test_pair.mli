(** Dependence testing between two array references of a common nest.

    For uniformly generated pairs (same access matrix [H]) the distance
    set [{ d | H d = c1 - c2 }] is computed exactly: a unique distance
    when [ker H] is trivial, otherwise [Star] components on the loops the
    kernel spans.  Non-uniform pairs fall back to per-dimension GCD and
    Banerjee tests, yielding either independence or an all-[Star]
    direction vector — the classical practical-dependence-testing
    pipeline restricted to what the evaluation suite needs. *)

type result =
  | Independent
  | Dependent of Depvec.t
      (** Distance vector of [sink - source] for the pair [(r1, r2)];
          the caller normalises direction from the lexicographic sign. *)

type prepared
(** What every uniform pair over one access matrix [H] shares: [H]
    eliminated over the whole iteration space
    ({!Ujam_linalg.Subspace.prepare}), the loops [ker H] touches, and
    whether [H] is coupled (not separable SIV). *)

val prepare : Ujam_linalg.Mat.t -> prepared

val uniform : bounds:(int * int) array option -> prepared -> int array -> result
(** [uniform ~bounds (prepare h) rhs] tests [H i + c1] against [H i + c2]
    with [rhs = c1 - c2]; the result depends only on [(H, rhs, bounds)].
    The particular solution is {!Ujam_linalg.Subspace.outcome}'s, which
    is the rational solution of [h x = rhs] with free variables zero,
    found in [int] arithmetic.
    A non-integral rational solution is all-[Star] for a coupled [H] and
    [Independent] otherwise.  {!test} is [prepare] + [uniform] on a
    uniform pair. *)

val nonuniform :
  bounds:(int * int) array option -> Ujam_linalg.Mat.t -> Ujam_linalg.Mat.t -> int array -> result
(** [nonuniform ~bounds h1 h2 rhs], for same-rank [h1 <> h2], tests
    [H1 i1 + c1] against [H2 i2 + c2] with [rhs = c2 - c1] by per-subscript
    gcd and Banerjee tests: [Independent] or all-[Star].  Applied to the
    matrices alone, it prepares those tests once. *)

val test : bounds:(int * int) array option -> Ujam_ir.Aref.t -> Ujam_ir.Aref.t -> result
(** [bounds] are per-level inclusive index ranges when the nest has
    constant bounds; they sharpen the tests (distance within the
    iteration space, Banerjee limits). *)
