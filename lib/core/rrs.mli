(** Register-reuse-set tables (the paper's Figures 4, 5 and 7).

    These are the tables the unroll-amount search consults: for every
    unroll vector in the space, the number of value streams (RRSs), the
    memory operations left after scalar replacement (V_M), and the
    floating-point registers scalar replacement needs (R).  They are
    computed from the UGS structure of the *original* body only — no
    unrolled body is ever materialised, which is the contrast with the
    brute-force scheme of Wolf, Maydan and Chen.

    [summary_tables] stores totals per cell (read with
    [Unroll_space.Table.get]): {!Streams.add_unrolled} writes each UGS
    into them from one partition of the full space box, with region
    writes instead of a per-cell walk.  {!Balance.prepare} builds the
    same tables alongside each UGS's g_T table, and the test suite
    checks every cell against the streams of the materialised unrolled
    body.
    [incremental_rrs_table] is the Figure 5 formulation: it works from
    the RRS leaders and their merge keys alone — definitions always
    regenerate their stream; a use-led leader's copy is absorbed from
    the offset at which an earlier generator's copy coincides with it
    (the Figure 6 condition).  It also stores totals per cell and is
    checked against the stream table of [summary_tables]. *)

open Ujam_linalg

val partition :
  localized:Subspace.t -> Ujam_ir.Nest.t -> Streams.stream list
(** Figure 4, [ComputeRRS], on the original body. *)

val summary_tables :
  Unroll_space.t ->
  localized:Subspace.t ->
  Ujam_ir.Nest.t ->
  Unroll_space.Table.t * Unroll_space.Table.t * Unroll_space.Table.t
(** [(streams, memory_ops, registers)] summed over the nest's UGSs. *)

val incremental_rrs_table :
  Unroll_space.t -> localized:Subspace.t -> Ujam_ir.Nest.t -> Unroll_space.Table.t
