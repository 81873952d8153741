(** Static reuse-distance profiles (after arXiv:2411.13854, recast on
    the paper's UGS algebra), from one set of reuse counts per nest.

    No trace is taken.  For each UGS the Equation-1 memory cost is
    evaluated at every suffix localized space [S_k = span{k..d-1}]; the
    costs are monotone non-increasing as more loops join the localized
    space, and each difference [c(S_k) - c(S_{k-1})] is exactly the
    per-iteration weight of accesses whose reuse loop [k-1] carries.
    Such an access finds its previous use one full sweep of loops
    [k..d-1] away, so its reuse distance is the line volume of that
    sweep — a closed form over the iteration box (trip counts), no
    enumeration.  The volume is the sweep's fetch count capped by its
    distinct-line footprint (from interval analysis of the subscripts):
    re-fetching the same lines does not deepen the LRU stack.  The
    floor [c(S_0)] is the compulsory (cold) mass, itself capped by the
    base array's total footprint.

    Folding the histogram against a capacity of [C] lines yields a
    predicted miss ratio: a bucket hits iff its distance is [<= C]
    (Mattson's LRU-stack criterion, see {!Ujam_sim}'s [Cache.Stack]);
    cold mass always misses.  Distances are in cache lines of the
    geometry the profile was built for, so the fold must use the same
    [line].  Because the distances are interval overestimates, the fold
    also accepts a [slack] factor: folding at [slack > 1] counts only
    buckets that clear the capacity confidently, giving a lower bound
    on the ratio — the [(floor, predicted)] interval the calibration
    oracle checks the simulator against. *)

type bucket = {
  distance : float;  (** reuse distance, lines of the profiled geometry *)
  weight : float;    (** accesses per innermost iteration *)
}

type profile = {
  ugs : Ugs.t;
  accesses : float;  (** member accesses per innermost iteration *)
  near : float;
      (** mass reused within the innermost localized space (registers /
          same-line walks): distance [near_distance] *)
  near_distance : float;
  buckets : bucket list;  (** outer-carried mass, ascending distance *)
  cold : float;  (** compulsory mass, amortized per iteration *)
  write_only : float;
      (** accesses from group-spatial classes containing no read under
          the full localized space — the mass a write-through
          (no-allocate) level can never retain.  A write class some
          outer loop spatially merges with a read class is excluded:
          those reads install its lines, so its misses follow the
          ordinary histogram fold. *)
}

val profiles :
  ?groups:Ugs.t list -> Ujam_ir.Nest.t -> (line:int -> profile list) option
(** One profile per UGS for each line size; [None] when the nest's trip
    counts are not compile-time constant.  Each UGS's counts at every
    suffix level ({!Locality.ugs_cost}) and its write-only mass are line
    independent: they are taken once, before any line is given.  [groups]
    supplies a precomputed partition. *)

val miss_ratio :
  ?write_through:bool -> ?slack:float -> capacity_lines:float -> profile -> float
(** Fold one profile against a capacity (in lines of the profiled
    geometry).  With [write_through], the [write_only] mass misses
    unconditionally and the rest scales.  [slack] (default 1.0) demands
    each bucket's distance exceed [slack *. capacity_lines] to count as
    a miss — see the interval discussion above. *)

val nest_miss_ratio :
  ?write_through:bool ->
  ?slack:float ->
  capacity_lines:float ->
  profile list ->
  float
(** Access-weighted mean over the UGS profiles: predicted misses per
    reference for the whole nest. *)

val dominant_distance : profile -> float option
(** The heaviest capacity-sensitive bucket's distance — what the lint
    layer compares against level capacities ("reuse distance 1.9x L1"). *)
