(** Kernels beyond Table 2: classical loops used by the examples, the
    documentation and the broader test surface.  Same conventions as
    {!Kernels} (column-major, first subscript contiguous). *)

open Ujam_ir

val mmijk : ?n:int -> unit -> Nest.t
(** Matrix multiply in IJK order (row-walking: the order that needs
    permutation). *)

val mmikj : ?n:int -> unit -> Nest.t
(** Matrix multiply in IKJ order. *)

val conv2d : ?n:int -> ?k:int -> unit -> Nest.t
(** 2-D convolution with a [k x k] kernel (4-deep nest, coupled-free). *)

val skewrec : ?n:int -> unit -> Nest.t
(** Anti-diagonal recurrence [A(I,J) = A(I-1,J+1)*S + B(I,J)]: the
    [(1,-1)] carried distance fences the outer loop at 0 extra copies,
    so plain unroll-and-jam degrades to the untransformed nest; a
    factor-1 skew of [J] by [I] straightens the distance to [(1,0)] and
    reopens the space (the [--seq] showcase). *)

val all : (string * (?n:int -> unit -> Nest.t)) list
