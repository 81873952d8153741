(** Perfect loop nests.

    A nest is a stack of loops (outermost first) around a straight-line
    body of statements; unroll-and-jam maps perfect nests to perfect
    nests with larger bodies, so this form is closed under every
    transformation in the library. *)

type t = { name : string; loops : Loop.t array; body : Stmt.t list }

val make : name:string -> loops:Loop.t list -> body:Stmt.t list -> t
(** @raise Invalid_argument if loop levels are not [0..depth-1] in order
    or if any subscript depth disagrees with the nest depth. *)

val depth : t -> int
val name : t -> string
val body : t -> Stmt.t list
val loops : t -> Loop.t array
val var_name : t -> int -> string

val flops_per_iteration : t -> int

val refs : t -> (Aref.t * [ `Read | `Write ]) list
(** All array references in textual order (per statement: reads of the
    rhs left-to-right, then the write). *)

val arrays : t -> string list
(** Distinct array base names, in order of first appearance. *)

val scalars : t -> string list
(** Every scalar name appearing in the body (assigned or read),
    sorted and deduplicated. *)

val trip_counts : t -> int array option
(** Trip count per level when all bounds are constant. *)

val iterations : t -> int option
(** Product of constant trip counts. *)

val with_body : t -> Stmt.t list -> t
val with_loops : t -> Loop.t array -> t

val iter_index_vectors : t -> (int array -> unit) -> unit
(** Enumerate the iteration space in loop order, evaluating affine bounds
    as it descends.  The callback receives the current full index vector
    (valid only for the duration of the call). *)

val pp : Format.formatter -> t -> unit
(** Fortran-style rendering. *)

val to_string : t -> string
