(** Value streams: register-reuse sets (Figure 4) generalised to unrolled
    bodies.

    A stream is a maximal run of references to the same moving location
    that can share one register chain in the innermost loop: the members
    of a group-temporal set ordered by the time they touch a location
    (larger constants touch a fixed location earlier), split at every
    definition because a store regenerates the value (Sec. 4.3).

    [of_body] partitions the sites of a (possibly materialised unrolled)
    body — the ground truth — while [add_unrolled] fills the stream,
    V_M, R, g_T and g_S tables of the unrolled loop over a whole unroll
    space from the original UGS alone, which is the paper's point: no
    unrolled body is ever built.  One temporal partition of the full
    space box per UGS, and a few region writes per class, replace any
    per-vector walk and any spatial partition. *)

open Ujam_linalg
open Ujam_reuse

type member = {
  site : Ujam_ir.Site.t;
  delta : int;  (** innermost-loop time offset within the stream *)
  is_def : bool;
}

type stream = {
  base : string;
  h : Ujam_linalg.Mat.t;
  invariant : bool;
  members : member list;
}

val registers : stream -> int
(** Registers needed by scalar replacement: delta span + 1; 1 for an
    invariant stream. *)

val memory_ops : stream -> int
(** Memory operations per innermost iteration after scalar replacement:
    one per stream (the generating load or store); 0 when invariant. *)

val build :
  base:string -> h:Ujam_linalg.Mat.t -> invariant:bool -> member list -> stream list
(** Time-sort the members and split at definitions; building block for
    alternative analyses (e.g. the dependence-based model) that derive
    the member sets by other means. *)

val of_body : localized:Subspace.t -> Ujam_ir.Nest.t -> stream list
(** Streams of every UGS of the body, each UGS's [H] prepared once
    against [L] for its partition and its members' time offsets. *)

val of_partition :
  Subspace.prepared -> invariant:bool -> Ugs.t -> Groups.partition -> stream list
(** [of_partition (Subspace.prepare u.h localized) ~invariant u p] is the
    streams of one UGS from its group-temporal partition [p] in the same
    [L]; [invariant] is {!Selfreuse.has_self_temporal} of [u.h] in [L].
    {!of_body} is this over every UGS. *)

type summary = { streams : int; memory_ops : int; registers : int }

val summarize : stream list -> summary

type tables = {
  space : Unroll_space.t;
  stream_table : Unroll_space.Table.t;
  mem_table : Unroll_space.Table.t;  (** V_M *)
  reg_table : Unroll_space.Table.t;  (** R *)
}
(** Totals per cell, read with [Unroll_space.Table.get]. *)

val create_tables : Unroll_space.t -> tables
(** All-zero tables over a space. *)

val add_unrolled :
  tables -> localized:Subspace.t -> Ugs.t -> Unroll_space.Table.t * Unroll_space.Table.t
(** [add_unrolled t ~localized ugs] adds the {!summarize}d streams of
    [ugs] unrolled by each [u] of [t.space] to [t]'s cells and returns
    the UGS's g_T and g_S tables.  The copies of the full space box are
    partitioned once ({!Solvers.point_classes}); each class is a cover
    of its copy offsets in g_T, or for a varying UGS's streams one
    corner per point of their join closure
    ({!Unroll_space.Table.add_lattice}).  A temporal class lies in one
    spatial class, named by its key with the contiguous row dropped, and
    g_S is a cover per spatial class.  The tests pin these tables
    against the materialised unrolled body. *)
