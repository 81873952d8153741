(** The fuzzing front end: generate nests, run the oracle layers over
    the engine's parallel work queue, shrink failures, report.

    A run draws routines from {!Ujam_workload.Generator} under a seed,
    checks each nest with the configured layers — five default ones
    ({!Recount}, {!Simcheck}, {!Crossmodel}, the transformation
    verifier {!Ujam_analysis.Verify} over every materialised unroll
    vector, and the {!Cachepred} miss-ratio predictor) plus the opt-in
    {!Ujam_native} ground truth — and, when a check reports an
    unexplained mismatch or an analysis crash, greedily shrinks the
    nest to a minimal reproducer ({!Shrink}) emitted as an OCaml
    snippet plus JSON.  Results are deterministic for a given config:
    generation is sequential, checks are pure, and the work queue slots
    results by input index whatever the domain count.

    A layer is a value: the run folds over [config.layers] without
    knowing which layers they are, so a new layer is one {!layer}
    record.  Fault injection is a layer built with an argument
    ([recount ~perturb ()], [native ~drop_copy:true ()]); the shrinker
    re-runs the same failing layer values. *)

open Ujam_linalg

type tally = {
  checked : int;  (** units the layer checked; the unit is the layer's *)
  skipped : int;  (** units the layer could not check *)
  failed : int;  (** mismatches the layer reported, explained ones included *)
}

type layer = {
  name : string;  (** the [--layers] spelling and the report label *)
  default : bool;  (** in {!all_layers} *)
  stage : Ujam_engine.Error.stage;  (** tags an exception escaping [check] *)
  check : config -> Ujam_ir.Nest.t -> Mismatch.t list * tally;
      (** one nest's findings and counts; an exception is a crash *)
  render : tally -> (string * (string * int) list) option;
      (** the layer's summed tally as one report line and its JSON
          fields; [None] for a layer with no counters *)
}

and config = {
  n : int;  (** nests to check *)
  seed : int;
  max_depth : int;  (** deeper generated nests are skipped *)
  bound : int;  (** per-level unroll bound of the searched space *)
  max_loops : int;
  machine : Ujam_machine.Machine.t;
  domains : int;
  layers : layer list;
  shrink : bool;
  deep : bool;
      (** deep-space mode: the generator also draws 4-deep nests;
          combine with a raised [bound]/[max_depth] (the CLI's
          [--deep-space] sets bound >= 8, max_depth >= 4) *)
  recurrent : bool;
      (** recurrent mode: the generator draws fence-binding
          anti-diagonal and cross-statement recurrences instead of the
          corpus mix — fodder for the skew/retime sequence legalizer *)
  dedup : bool;
      (** skip generated nests whose {!Ujam_ir.Canon.digest} was
          already queued this run — duplicates re-check nothing, so the
          [n] budget buys [n] distinct problems *)
}

val layer_name : layer -> string

val recount : ?perturb:(Vec.t -> Counts.t -> Counts.t) -> unit -> layer
(** Tables vs. the materialised recount ({!Recount.check});
    [perturb] post-processes every table prediction — fault injection
    for the oracle's own regression tests. *)

val sim : layer
(** Rank monotonicity vs. the cache simulator ({!Simcheck.check});
    counts nests with at least one replayed candidate. *)

val cross_model : layer
(** Every registered strategy vs. the exhaustive reference
    ({!Crossmodel.check}). *)

val verify : layer
(** Every unroll vector of the space through the gated pipeline;
    counts unrolled bodies checked and rejections. *)

val cachepred : layer
(** Per-level miss-ratio intervals vs. the hierarchy simulator
    ({!Cachepred.check}); counts nests with a compared level. *)

val native : ?drop_copy:bool -> unit -> layer
(** Compile and run the nest and up to four legal unrolls, checksums
    vs. the interpreter; counts variants validated and nests skipped
    for lack of a toolchain.  [drop_copy] makes the emitter drop the
    final statement of every multi-statement body — the classic
    lost-jammed-copy bug — as fault injection. *)

val registry : layer list
(** Every shipped layer in report order: recount, sim, cross-model,
    verify, cachepred, native. *)

val all_layers : layer list
(** The default layer set: {!registry} without {!native}, which stays
    opt-in ([ujc fuzz --native]) because compiling and executing each
    nest through the host toolchain is orders of magnitude slower than
    the analytical layers.  Without a toolchain it degrades to a skip
    count, never a failure. *)

val default_config : ?machine:Ujam_machine.Machine.t -> unit -> config
(** n 200, seed 1997, max_depth 3, bound 4, max_loops 2, machine alpha,
    domains 1, {!all_layers}, shrinking on, deep-space, recurrent and
    dedup off. *)

type failure = {
  routine : string;
  nest : Ujam_ir.Nest.t;
  error : Ujam_engine.Error.t option;  (** a layer crashed outright *)
  mismatches : Mismatch.t list;
  reduced : Ujam_ir.Nest.t option;  (** shrunk reproducer *)
}

type report = {
  config : config;
  nests : int;  (** nests checked *)
  routines : int;  (** routines drawn *)
  draws : int;  (** generator nest draws, including re-rolls *)
  rejected : int;  (** out-of-class draws re-rolled by the generator *)
  skipped_depth : int;  (** nests over [max_depth], not checked *)
  deduped : int;  (** canonical duplicates skipped (0 unless [dedup]) *)
  digest_s : float;
      (** processor time spent digesting drawn nests (0 unless
          [dedup]); every drawn nest within the depth limit is
          digested once, duplicates included *)
  fenced : int;
      (** emitted nests whose safety cap binds at a non-innermost level
          (only counted in recurrent mode) *)
  tallies : (layer * tally) list;
      (** one summed tally per reported layer, in {!registry} order:
          every default layer (zero when not configured) and every
          configured one, layers from outside the registry last *)
  total_mismatches : int;
  unexplained : int;
  failures : failure list;
}

val run : config -> report

val ok : report -> bool
(** No unexplained mismatch and no crashed layer. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Ujam_obs.Json.t
