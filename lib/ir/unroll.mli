(** The unroll-and-jam transformation.

    Unrolling by vector [u] (component [k] = number of *extra* body
    copies of loop [k]; the innermost component must be 0) multiplies the
    step of loop [k] by [u_k + 1] and replicates the body once per offset
    vector [o], [0 <= o <= u] pointwise, with index [i_k] substituted by
    [i_k + o_k * step_k].  Copies are emitted in lexicographic offset
    order, preserving statement order within a copy — the "jam" of
    classical unroll-and-jam.

    Iteration counts are assumed divisible by the unroll factors (the
    standard assumption; a cleanup loop is the code generator's business
    and does not affect balance). *)

val offsets : Ujam_linalg.Vec.t -> Ujam_linalg.Vec.t list
(** All offset vectors [0 <= o <= u], lexicographically sorted. *)

val divides : Nest.t -> Ujam_linalg.Vec.t -> bool
(** Whether every unrolled level's factor [u_k + 1] divides that loop's
    constant trip count — the divisibility assumption under which
    {!unroll_and_jam} preserves semantics exactly (no cleanup loop
    needed).  Vacuously true when trip counts are not constant. *)

val clamp_divisible : Nest.t -> Ujam_linalg.Vec.t -> Ujam_linalg.Vec.t
(** Largest pointwise [u' <= u] such that [divides nest u'] (identity
    when trip counts are not constant) — used before interpreting a
    transformed nest, since the remainder loop lives outside the
    perfect-nest IR. *)

val validate : Nest.t -> Ujam_linalg.Vec.t -> unit
(** @raise Invalid_argument as {!unroll_and_jam} does on a malformed [u]. *)

val unroll_and_jam : Nest.t -> Ujam_linalg.Vec.t -> Nest.t
(** @raise Invalid_argument if [u] has a non-zero innermost component, a
    negative component, or the wrong dimension. *)
