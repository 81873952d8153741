(** The group-count tables (g_T, g_S) over the unroll space: the
    paper's incremental computations (Figures 2 and 3).

    [compute_table] is the incremental [ComputeTable] of Figure 2: start
    every cell at the number of leaders, then for each leader pair
    subtract one over the region of unroll vectors at which the
    lexicographically greater leader's copies merge into the smaller
    (super)leader's group, stopping where an earlier superleader already
    claimed the merge.  The total number of groups after unrolling by [u]
    is the prefix sum over [u' <= u] — the paper's [Sum].

    The exact tables the search reads store totals per cell and come
    from {!Streams.add_unrolled}, which {!Balance.prepare} runs once per
    UGS: one temporal partition of the merge-key-shifted copy points of
    the whole space ({!Solvers.point_classes}) gives g_T as a cover per
    temporal class and g_S as a cover per spatial class, each temporal
    class lying inside one spatial class.  The tests check them cell
    for cell against the materialised unrolled body, and
    [compute_table] against them on its domain ({!applicable}). *)

open Ujam_linalg

val compute_table :
  Unroll_space.t ->
  solver:Solvers.t ->
  kernel_gens:Vec.t list ->
  Vec.t list ->
  Unroll_space.Table.t
(** Leaders must be lexicographically sorted constant vectors;
    [kernel_gens] are the self-merge directions from
    {!Solvers.kernel_moves}. *)

val total : Unroll_space.Table.t -> Vec.t -> int
(** Number of groups after unrolling by [u] (the paper's [Sum]). *)

val gts_table :
  Unroll_space.t -> localized:Subspace.t -> Ujam_reuse.Ugs.t -> Unroll_space.Table.t
(** Figure 2, [ComputeGTSTable]: leaders are the GTS leaders of the UGS
    within the localized space; solver is temporal. *)

val gss_table :
  Unroll_space.t -> localized:Subspace.t -> Ujam_reuse.Ugs.t -> Unroll_space.Table.t
(** Figure 3, [ComputeGSSTable]: GSS leaders with the spatial solver. *)

val applicable :
  Unroll_space.t -> solver:Solvers.t -> kernel_gens:Vec.t list -> Vec.t list -> bool
(** Domain of the incremental algorithm: every pairwise merge key (and
    every self-merge direction) must be orientable — pointwise
    non-negative after negating if needed.  A mixed-sign key means a
    copy's duplicate sits at a lexicographically earlier but pointwise
    incomparable offset, which the per-copy prefix-sum table cannot
    express; the paper's implementation has the same restriction ("this
    case did not appear in our testing", Sec. 5). *)

val gts_applicable :
  Unroll_space.t -> localized:Subspace.t -> Ujam_reuse.Ugs.t -> bool
