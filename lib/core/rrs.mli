(** Register-reuse-set tables (the paper's Figures 4, 5 and 7).

    These are the tables the unroll-amount search consults: for every
    unroll vector in the space, the number of value streams (RRSs), the
    memory operations left after scalar replacement (V_M), and the
    floating-point registers scalar replacement needs (R).  They are
    computed from the UGS structure of the *original* body only — no
    unrolled body is ever materialised, which is the contrast with the
    brute-force scheme of Wolf, Maydan and Chen.

    The tables the search reads are {!Streams.add_unrolled}'s: it
    writes each UGS into them from one partition of the full space box,
    with region writes instead of a per-cell walk, and
    {!Balance.prepare} builds them alongside each UGS's g_T and g_S
    tables.  The test suite checks every cell against the streams of the
    materialised unrolled body.
    [incremental_rrs_table] is the Figure 5 formulation: it works from
    the RRS leaders and their merge keys alone — definitions always
    regenerate their stream; a use-led leader's copy is absorbed from
    the offset at which an earlier generator's copy coincides with it
    (the Figure 6 condition).  It stores totals per cell and is checked
    against {!Streams.add_unrolled}'s stream table. *)

open Ujam_linalg

val partition :
  localized:Subspace.t -> Ujam_ir.Nest.t -> Streams.stream list
(** Figure 4, [ComputeRRS], on the original body. *)

val incremental_rrs_table :
  Unroll_space.t -> localized:Subspace.t -> Ujam_ir.Nest.t -> Unroll_space.Table.t
