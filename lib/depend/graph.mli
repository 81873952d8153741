(** Dependence graphs over the reference sites of a nest.

    The graph can be built with or without input (read-read) dependences;
    the size difference between the two is exactly the storage the
    paper's UGS-based model saves (Table 1). *)

type kind = Flow | Anti | Output | Input

type edge = { src : Ujam_ir.Site.t; dst : Ujam_ir.Site.t; kind : kind; dvec : Depvec.t }

type t = { nest : Ujam_ir.Nest.t; edges : edge list }

val bounds : Ujam_ir.Nest.t -> (int * int) array option
(** Each loop's [(lo, hi)] when every bound is constant. *)

val build : ?include_input:bool -> Ujam_ir.Nest.t -> t
(** [include_input] defaults to [true].  Edges are normalised so the
    distance vector is lexicographically non-negative: the source is the
    earlier instance.  Loop-independent (all-zero) dependences run from
    the textually earlier site to the later one; ambiguous (leading
    [Star]) dependences keep the id order of the pair.

    A pair of one array and one access matrix [H] is tested once per
    [(array, H, c1 - c2)] in a memo local to the call; other same-array
    pairs go through {!Test_pair.test} one by one. *)

val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz rendering: one node per reference site, one edge per
    dependence, labelled with kind and distance vector (input edges
    dashed — the storage the UGS model avoids). *)
