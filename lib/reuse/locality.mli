(** The Wolf–Lam memory-cost equation (the paper's Equation 1) and the
    loop ranking used to choose which loops to unroll.

    For a UGS with [g_T] group-temporal and [g_S] group-spatial sets in
    localized space [L], and a cache line of [line] array elements:

    {v accesses/iteration = (g_S + (g_T - g_S)/line) * base v}

    where [base] is 0 for an invariant stream (self-temporal reuse in
    [L]), [1/line] for a unit-stride stream (self-spatial reuse in [L]),
    and 1 otherwise, each decided by a rank ({!Subspace.kernel_dim}).
    Group-temporal sets beyond their group-spatial leader cost only the
    [1/line] line-boundary term; invariant streams stay in registers. *)

open Ujam_linalg

type stream = Invariant | Unit_stride | No_reuse

type ugs_cost = {
  ugs : Ugs.t;
  g_t : int;
  g_s : int;
  stream : stream;
  accesses : float;  (** memory accesses per localized iteration *)
}

val stream_of : localized:Subspace.t -> Mat.t -> stream
(** The stream kind of a UGS with access matrix [H] in [L]: invariant
    when {!Selfreuse.has_self_temporal}, else unit-stride when
    {!Selfreuse.has_self_spatial}. *)

val ugs_cost :
  ?temporal:Groups.partition -> localized:Subspace.t -> Ugs.t -> line:int -> ugs_cost
(** [temporal] supplies the UGS's group-temporal partition in [L] when
    the caller has already built it.  [ugs_cost ~localized u] counts
    [g_T], [g_S] and the stream kind, which do not depend on the line,
    once; applying it to each line size only folds them. *)

val nest_accesses :
  ?groups:Ugs.t list -> line:int -> localized:Subspace.t -> Ujam_ir.Nest.t -> float
(** Sum of {!ugs_cost} over all UGSs of the nest.  [groups] supplies a
    precomputed UGS partition (e.g. from an analysis context) so the
    partition is not rebuilt per call. *)

val rank_outer_loops :
  ?groups:Ugs.t list -> line:int -> Ujam_ir.Nest.t -> (int * float) list
(** Candidate outer levels ordered by the memory cost of the nest when
    that loop joins the innermost loop in the localized space — best
    (lowest-cost, i.e. most reuse carried) first.  The paper unrolls the
    best one or two. *)

val pp_stream : Format.formatter -> stream -> unit

val permutation_cost : line:int -> Ujam_ir.Nest.t -> int array -> float
(** Memory cost per innermost iteration when the nest is permuted by the
    given level order (innermost-localized Equation 1 on the permuted
    nest) — the McKinley–Carr–Tseng loop-cost ranking. *)

val rank_permutations : line:int -> Ujam_ir.Nest.t -> (int array * float) list
(** All level permutations ordered by {!permutation_cost}, best first.
    Legality is the caller's concern
    ({!Ujam_depend.Safety.legal_permutation}). *)
