(** Column-major memory layout for the arrays of a nest.

    Array extents are derived from the subscript ranges over the
    iteration space (interval analysis of the affine bounds), arrays are
    laid out contiguously in order of first appearance, line-aligned —
    the Fortran picture the paper assumes. *)

type t

type array_info = { base : int; mins : int array; strides : int array; extents : int array }
(** Where an array lives: [base] is the address of the element at the
    per-dimension subscript minima [mins]; [strides] are column-major.
    {!info} returns the layout's own arrays: do not mutate them. *)

val of_nest : Ujam_ir.Nest.t -> line:int -> t

val compile : t -> Ujam_ir.Aref.t -> Ujam_ir.Affine.t
(** The reference's element address as one affine form of the index
    vector: [const = base + sum_i (c_i - min_i) * stride_i] and
    [coefs.(k) = sum_i H_ik * stride_i].  Bit-identical to evaluating
    each subscript separately (int arithmetic is modular).
    @raise Invalid_argument for an array the layout does not hold. *)

val iter_trace :
  t -> Ujam_ir.Nest.t -> Ujam_ir.Aref.t array -> (int array -> int array -> int -> unit) -> int
(** [iter_trace t nest refs f] walks the iteration space in the order of
    {!Ujam_ir.Nest.iter_index_vectors} (bounds evaluated per outer index
    vector, so triangular bounds and steps > 1 hold) and calls
    [f addrs incs trips] for each non-empty run of the innermost loop:
    [refs.(j)] starts at [addrs.(j)] and steps by [incs.(j)] per
    iteration (the trace {!Cache.access_run} replays).  [f] may overwrite
    [addrs] but not [incs].  Returns the number of iterations. *)

val footprint : t -> int
(** Total elements allocated. *)

val info : t -> string -> array_info
(** @raise Not_found for unknown arrays. *)
