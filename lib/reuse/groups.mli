(** Group-temporal and group-spatial partitions of a UGS.

    Within localized space [L], two members with constants [c1], [c2]
    have group-temporal reuse iff some integral [x] in [L] satisfies
    [H x = c1 - c2]; group-spatial reuse iff [H_s x = t(c1 - c2)] where
    both the matrix row and the difference component of the contiguous
    dimension are zeroed (they then walk the same cache lines).  Both
    relations are equivalences on a UGS, so they partition it: a scan
    against the class leaders, each test read in place
    ({!Subspace.solvable_diff}). *)

open Ujam_linalg

type partition = {
  classes : Ujam_ir.Site.t list list;
      (** Each class sorted by lexicographic constant vector; classes
          sorted by their leader. *)
}

val group_temporal : localized:Subspace.t -> Ugs.t -> partition
(** [temporal_partition (Subspace.prepare u.h localized) u]. *)

val temporal_partition : Subspace.prepared -> Ugs.t -> partition
(** The group-temporal partition with [H] already eliminated against
    [L] ([Subspace.prepare u.h localized]), for callers that solve the
    same system again for their members' witnesses. *)

val group_spatial : localized:Subspace.t -> Ugs.t -> partition
(** Prepares [H_s] against [L] once for the whole partition. *)

val count : partition -> int
val leaders : partition -> Ujam_ir.Site.t list

val merges_spatial : localized:Subspace.t -> Ugs.t -> c1:Vec.t -> c2:Vec.t -> bool
