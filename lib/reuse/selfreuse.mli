(** Self-temporal and self-spatial reuse vector spaces (Wolf–Lam).

    A reference with access matrix [H] touches the same address at
    iterations [i] and [i + r] exactly when [H r = 0]: the self-temporal
    space is [ker H].  Zeroing the row of the memory-contiguous array
    dimension (row 0, Fortran column-major) yields [H_s]; [ker H_s]
    adds the directions within an array column, i.e. a cache line: the
    self-spatial space.  The [has_] tests intersect no spaces: they
    compare [dim (ker A ∩ L)], a rank ({!Subspace.kernel_dim}). *)

open Ujam_linalg

val spatial_matrix : Mat.t -> Mat.t
(** [H_s]: row 0 zeroed. *)

val self_temporal : Mat.t -> Subspace.t
val self_spatial : Mat.t -> Subspace.t

val has_self_temporal : localized:Subspace.t -> Mat.t -> bool
(** [ker H ∩ L] non-trivial: some localized loop revisits the address. *)

val has_self_spatial : localized:Subspace.t -> Mat.t -> bool
(** [ker H_s ∩ L] strictly larger than [ker H ∩ L]: some localized loop
    walks along a cache line without revisiting the address. *)
