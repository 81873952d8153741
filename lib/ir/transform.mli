(** First-class loop transformations and their composition algebra.

    Every structural transformation the library performs — unroll-and-jam,
    interchange, tiling, skewing, retiming — is a value of {!t}, applied
    through one entry point instead of five ad-hoc module calls.  A
    sequence of transforms is a program over nests; {!apply_seq} runs it
    left to right ([apply_seq [a; b] == apply b ∘ apply a]), and
    {!normalize} rewrites a sequence to a canonical form (identity steps
    dropped, adjacent like steps fused) without changing its meaning.

    This layer is purely structural: a transform either produces a nest
    or is rejected with a located reason (dimension mismatch, non-unit
    step, ...).  *Legality* with respect to data dependences and
    post-condition *verification* live above the IR — see
    [Ujam_analysis.Passes], which gates each step with the dependence
    tests and [Verify] and turns rejections into diagnostics. *)

type t =
  | Unroll of Ujam_linalg.Vec.t
      (** Unroll-and-jam by vector [u] ({!Unroll.unroll_and_jam}). *)
  | Interchange of int array
      (** Permutation: new level [k] runs old level [perm.(k)]. *)
  | Tile of { levels : int list; sizes : int list }
      (** Strip-mine + hoist controllers ({!Tile.tile}). *)
  | Skew of int array array
      (** Unit lower-triangular skew matrix ({!Skew.apply}). *)
  | Retime of int array array
      (** Per-statement iteration shifts ({!Retime.apply}). *)

type reject = { loc : Loc.t; reason : string }
(** A structural rejection: where, and the underlying reason (the
    message of the [Invalid_argument] the one-shot module raised). *)

val apply_exn : t -> Nest.t -> Nest.t
(** Dispatch to the underlying module; raises exactly what it raises
    (the pinned [Invalid_argument] messages are preserved). *)

val apply : t -> Nest.t -> (Nest.t, reject) result

val apply_seq : t list -> Nest.t -> (Nest.t, int * t * reject) result
(** Left-to-right composition; on rejection returns the failing step's
    index and transform alongside the reject. *)

val fuse : t -> t -> t option
(** [fuse a b] is a single transform equivalent to [a] then [b], when
    one exists: unroll vectors compose as
    [(u ⊕ v)_k = (u_k + 1)(v_k + 1) - 1], permutations and skew
    matrices compose by (matrix) product, retimings add pointwise.
    Tiles, and mixed pairs, do not fuse.  A fused unroll emits the same
    body copies as the pair but in one combined lexicographic offset
    order, so the equivalence is up to the order of statements within
    the jammed body; the other fusions are structurally exact. *)

val normalize : t list -> t list
(** Canonical form: drop identity steps, fuse adjacent fusable steps,
    repeat to fixpoint.  [apply_seq (normalize s)] produces the same
    nest as [apply_seq s] up to the order of jammed body copies (see
    {!fuse}), and [normalize] is idempotent. *)

val equal : t -> t -> bool
val name : t -> string
(** ["unroll" | "interchange" | "tile" | "skew" | "retime"]. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering, e.g. [unroll(1,0)], [skew[[1,0],[1,1]]]. *)

val to_string : t -> string
