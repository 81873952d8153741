(** Value streams: register-reuse sets (Figure 4) generalised to unrolled
    bodies.

    A stream is a maximal run of references to the same moving location
    that can share one register chain in the innermost loop: the members
    of a group-temporal set ordered by the time they touch a location
    (larger constants touch a fixed location earlier), split at every
    definition because a store regenerates the value (Sec. 4.3).

    [of_body] partitions the sites of a (possibly materialised unrolled)
    body — the ground truth — while [unrolled_summary_fn] derives the
    stream counts of the unrolled loop from the original UGS structure
    and an unroll vector alone, which is the paper's point: no unrolled
    data structure is ever built. *)

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

val unrolled_summary_fn :
  Unroll_space.t -> localized:Subspace.t -> Ugs.t -> Vec.t -> summary
(** [unrolled_summary_fn space ~localized ugs u] is the {!summarize}d
    streams of [ugs] after unrolling by [u], without building the
    unrolled body or its streams: the deposit partition and its time
    order are computed once over the full space box (they are
    independent of [u]), and each query is an allocation-free walk that
    filters offsets outside [0..u].  Table fills ({!Rrs.summary_tables})
    run on this; the test suite pins those tables against {!of_body} on
    the materialised unrolled body.
    @raise Invalid_argument if [u] is outside [space]. *)
