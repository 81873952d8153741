(** The bounded unroll space [%U] and dense tables over it.

    An unroll vector gives the number of *extra* body copies per loop
    level; the innermost level is never unrolled, so its bound is 0.
    The space is the pointwise box [0 <= u <= bounds].  Tables indexed by
    unroll vectors are the paper's central data structure: they are
    filled once from the UGS structure and then answer every candidate
    [u] during the search.

    Tables are backed by a flat array plus a pending difference layer:
    region writes ([add_lattice]/[add_cover]) cost O(corners), or one
    O(card) pass for a large join closure, and corners are folded into
    per-cell values by d running-sum sweeps (O(d·card) total) on the
    first read after a write; prefix sums are answered in
    O(1) from a cached summed-area table.  The test suite runs random
    write/read programs against a per-cell reference table. *)

open Ujam_linalg

type t

val make : bounds:int array -> t
(** @raise Invalid_argument if any bound is negative or the last bound is
    non-zero. *)

val uniform : depth:int -> bound:int -> unroll_levels:int list -> t
(** Bound [bound] on each level in [unroll_levels], 0 elsewhere. *)

val depth : t -> int
val bounds : t -> int array
val card : t -> int
val mem : t -> Vec.t -> bool
val unroll_levels : t -> int list
(** Levels with a non-zero bound. *)

val copies : Vec.t -> int
(** Body copies made by unroll vector [u]: product of [u_k + 1]. *)

val iter : t -> (Vec.t -> unit) -> unit
(** Lexicographic enumeration of all vectors in the space. *)

val fold : t -> 'a -> ('a -> Vec.t -> 'a) -> 'a
(** [fold t init f] folds [f] over the space in lexicographic order. *)

val iter_pruned : t -> prune:(Vec.t -> bool) -> (Vec.t -> unit) -> int
(** Lexicographic enumeration with monotone subtree pruning.  At each
    enumeration node the pointwise-minimal completion of the current
    prefix is offered to [prune]; if it answers [true], the node's
    subtree and all later siblings at that level (whose minimal
    completions are pointwise above it) are skipped.  Sound whenever
    [prune] is upward-closed: [prune u && u <= u'] implies [prune u'].
    Returns the number of vectors skipped. *)

val vectors : t -> Vec.t list

val index : t -> Vec.t -> int
(** Position of a vector of the space in {!iter}/{!vectors} order. *)

val next : t -> int array -> unit
(** [next t o] steps the coordinates [o] to the next vector of the space
    in lex order, from the last vector to the first. *)

type lattice
(** The join closure of some positions: the pointwise maxima of their
    non-empty subsets. *)

val lattice : t -> int list -> lattice
(** Positions that form a chain are their own closure, found by one
    comparison per neighbour in lex order; otherwise O(sqrt card) joins
    per position while the closure has at most [sqrt card] points, else
    one O(d·card) sweep. *)

val cover : t -> int list -> lattice
(** The closure of the minimal positions: a constant written over it
    lands once at every [u] above one of the positions. *)

val lattice_size : lattice -> int
(** The number of points of the closure. *)

val lattice_below : lattice -> int array -> int -> int -> bool
(** [lattice_below l offs k i]: [offs.(i)], one of the positions [l]
    was built from, is pointwise below the [k]-th point of [l] in lex
    order.  [offs] is decoded once, at the partial application. *)

module Table : sig
  type space = t
  type t

  val create : space -> int -> t
  val get : t -> Vec.t -> int
  val set : t -> Vec.t -> int -> unit
  val add : t -> Vec.t -> int -> unit

  val add_lattice : t -> lattice -> (int -> int) -> unit
  (** [add_lattice t l f] adds [f k] at every [u] whose largest point of
      [l] below it is the [k]-th in lex order: one corner per point, by
      Möbius inversion over the closure (plain differences on a chain),
      or one O(card) pass when the closure is large. *)

  val add_cover : t -> Vec.t list -> int -> unit
  (** [add_cover t points delta] adds [delta] once at every [u] above at
      least one of [points] (the union of their upward boxes): the
      {!add_lattice} write of a constant over their {!cover}, never a
      per-point scan. *)

  val prefix_sum : t -> Vec.t -> int
  (** [sum over 0 <= u' <= u of t[u']] — the paper's [Sum] function.
      O(1) per query after a one-time summed-area sweep. *)
end
