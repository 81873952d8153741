(** Integer matrices and exact linear-system solving.

    An access matrix [H] maps iteration vectors to array-subscript
    vectors ([rows] = array dimensions, [cols] = loop-nest depth).
    Elimination is performed exactly over rationals ({!Rat}); kernel
    bases are rescaled to primitive integer vectors. *)

type t

val of_rows : int array array -> t
(** [of_rows rows] builds a matrix from row vectors.  All rows must have
    the same length.  The arrays are copied. *)

val of_rows_list : int list list -> t
val init : rows:int -> cols:int -> (int -> int -> int) -> t
val zero : rows:int -> cols:int -> t
val identity : int -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> int
val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val equal : t -> t -> bool

val transpose : t -> t
val mul : t -> t -> t
val apply : t -> Vec.t -> Vec.t
(** [apply m v] is the matrix-vector product [m v]. *)

val zero_row : t -> int -> t
(** [zero_row m i] is [m] with row [i] replaced by zeros (used to build
    the self-spatial matrix [H_s] from [H]). *)

val zero_col : t -> int -> t
(** [zero_col m j] is [m] with column [j] replaced by zeros (used to
    remove a loop dimension from consideration). *)

val hstack : t -> t -> t
(** Horizontal concatenation; both must have the same number of rows. *)

val of_cols : Vec.t list -> int -> t
(** [of_cols vs dim] packs the vectors as columns; [dim] is the row count
    used when the list is empty. *)

val rank : t -> int

val rref_rat : ?pivot_cols:int -> Rat.t array array -> Rat.t array array * int array
(** Gauss-Jordan elimination over the rationals: the reduced matrix and
    the pivot column of each pivot row.  Pivots are sought only in the
    first [pivot_cols] columns (default: all), left to right, taking the
    first non-zero entry at or below the current row; the remaining
    columns are carried along by the row operations.  {!kernel} and
    {!row_space} are this elimination. *)

val kernel : t -> Vec.t list
(** Basis of the rational nullspace, rescaled to primitive integer
    vectors.  The empty list means the kernel is trivial. *)

val row_space : t -> Vec.t list
(** Canonical basis of the row space: the non-zero rows of the reduced
    row echelon form, rescaled to primitive integer vectors.  Two
    matrices span the same row space iff their [row_space] lists are
    equal. *)

val is_separable_siv : t -> bool
(** At most one non-zero entry in every row and every column. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
