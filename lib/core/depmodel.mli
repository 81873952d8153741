(** The dependence-based reuse model — the prior art of [Carr PACT'96]
    that the paper's UGS model replaces.

    All reuse information is derived from dependences *including input
    dependences*: group-temporal structure from pairs whose distance is
    zero outside the innermost loop, group-spatial structure from the
    same test on line-truncated references, innermost invariance from
    self input dependences.  As in the prior art, the pairs are tested
    once per nest on the original loop, and each candidate unroll vector
    updates the distances: copy [o] of a reference adds [H o] to its
    constant vector, so an exact distance [x] becomes [x + o_a - o_b]
    between two copies and a [Star] stays a [Star].  Pairs whose result
    depends on the copies themselves (coupled or non-uniform subscripts)
    are tested per copy pair.  The classes are those the input-inclusive
    graph of the materialised body gives; that graph is what the paper's
    tables spare ({!graph_cost}).

    On separable-SIV nests the dependence distances solve exactly the
    linear systems the UGS model solves, so both models compute the same
    streams; the test suite and the [ablation-model] bench check this. *)

open Ujam_linalg

type classes = { repr : int array; deltas : int array; invariant : bool array }
(** Per site of an unrolled body: its class representative, innermost
    time offset and innermost invariance.  Sites are joined by
    dependences of distance 0 (or [Star]) outside the innermost loop; the
    offsets follow the joins breadth-first from each class's first site,
    in the dependence graph's pair order.  Test hook: [classes] and
    [of_classes] are exported for the tests' graph reference. *)

val classes : Ujam_ir.Nest.t -> Vec.t -> classes * classes
(** [classes nest] tests the pairs of [nest] and of its line-truncated
    copy once; applied to [u], it gives the temporal and the spatial
    classes of the body unrolled by [u].
    @raise Invalid_argument on a malformed [u], as {!metrics} does. *)

val of_classes :
  machine:Ujam_machine.Machine.t -> Ujam_ir.Nest.t -> classes * classes -> Bruteforce.metrics
(** Streams and Equation 1 of an unrolled body from its classes. *)

val metrics : machine:Ujam_machine.Machine.t -> Ujam_ir.Nest.t -> Vec.t -> Bruteforce.metrics
(** [metrics ~machine nest] tests the pairs once for every vector it is
    applied to. *)

val best :
  cache:bool ->
  machine:Ujam_machine.Machine.t ->
  Unroll_space.t ->
  Ujam_ir.Nest.t ->
  Vec.t * Bruteforce.metrics

val graph_cost : Ujam_ir.Nest.t -> Vec.t -> int * int
(** [(with_input, without_input)]: dependence-edge counts for the body
    unrolled by [u] — the storage comparison of Table 1 at the loop
    level. *)
