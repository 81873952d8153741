(** The unified selection pipeline.

    One entry point analyzes a nest with any registered strategy
    ({!Model.MODEL}) over a shared {!Ujam_core.Analysis_ctx};
    {!run_corpus} scales that to routine batches on an OCaml 5
    domain-based work queue with deterministic result ordering — the
    report for routine [i] lands in slot [i] whatever the domain count,
    so 1-domain and N-domain runs render byte-identically.  Failures
    degrade to per-routine {!Error.t} records; the batch always
    completes. *)

open Ujam_linalg

type nest_report = {
  nest_name : string;
  model : string;
  u : Vec.t;                 (** chosen unroll vector *)
  balance_before : float;
  balance_after : float;
  objective : float;         (** |beta_L - beta_M| at the choice *)
  registers : int;
  memory_ops : int;
  flops : int;
  speedup : float;           (** modelled cycles before / after *)
  sequence : Ujam_analysis.Passes.step list;
      (** legalizing transformation prefix chosen by the [seq] search
          (with per-step why-legal notes); empty unless [~seq:true]
          found a strict improvement, and omitted from {!pp}/JSON when
          empty *)
  diagnostics : Ujam_analysis.Diagnostic.t list;
      (** analyzer findings attached to this nest (e.g. the [UJ010]
          monotonicity-guard degradation); empty on a clean run and
          omitted from {!pp}/JSON when empty *)
}

type nest_outcome = (nest_report, Error.t) result

type routine_report = { routine : string; nests : nest_outcome list }

type corpus_report = {
  model : string;
  domains : int;
  bound : int;
  routines : routine_report array;  (** input order, one slot per routine *)
  ok : int;
  failed : int;
  timings : Ujam_core.Analysis_ctx.timings;  (** summed per-stage counters *)
  elapsed_s : float;
}

val analyze :
  ?bound:int ->
  ?max_loops:int ->
  ?model:(module Model.MODEL) ->
  ?seq:bool ->
  machine:Ujam_machine.Machine.t ->
  ?routine:string ->
  Ujam_ir.Nest.t ->
  nest_outcome
(** Analyze one nest ([bound] defaults to 4, [model] to
    {!Model.Ugs_tables}).  With [~seq:true], a binding safety fence
    first triggers {!Ujam_analysis.Seqsearch}: if a short verified
    skew/retime prefix strictly improves the objective, the pipeline
    runs on the legalized nest and the report carries the sequence plus
    its [UJ026] certificate.  Never raises on unsupported input: the
    outcome carries a typed {!Error.t} instead. *)

val memo_clear : unit -> unit
(** Does nothing.  There is no outcome memo: every call analyses its
    nest, and the serve daemon's {!Result_cache} is the only result
    cache in the process.  A compatibility stub, like
    {!Ujam_ir.Hashcons}: only the frozen [e2e/] harness calls it; no
    library, binary or test code may. *)

val memo_stats : unit -> Result_cache.stats
(** All zeros; an [e2e/]-only stub like {!memo_clear}. *)

val parallel_map :
  ?domains:int -> f:(domain:int -> 'a -> 'b) -> 'a array -> 'b array
(** The engine's deterministic work queue on its own: run [f] over the
    jobs on [domains] OCaml 5 domains (default 1, clamped to the job
    count), slotting result [i] from job [i] whatever the interleaving.
    [f] receives the worker-domain index so callers can keep per-domain
    accumulators ({!run_corpus} threads its timing counters this way);
    the oracle's fuzz loop batches nest checks on the same queue. *)

val run_corpus :
  ?domains:int ->
  ?bound:int ->
  ?max_loops:int ->
  ?model:(module Model.MODEL) ->
  ?seq:bool ->
  machine:Ujam_machine.Machine.t ->
  Ujam_workload.Generator.routine list ->
  corpus_report
(** Analyze a routine batch on [domains] parallel domains (default 1).
    Results are slotted by input index, so the rendered report is
    independent of the domain count; the timing counters are the only
    run-dependent fields and are excluded from {!pp}/{!to_json} unless
    requested. *)

val routines_of_catalogue :
  ?n:int -> unit -> Ujam_workload.Generator.routine list
(** The 19 Table-2 kernels wrapped as single-nest routines. *)

val pp : Format.formatter -> corpus_report -> unit
val pp_nest_outcome : Format.formatter -> nest_outcome -> unit
val pp_timings : Format.formatter -> corpus_report -> unit
val to_string : corpus_report -> string

val nest_outcome_to_json : nest_outcome -> Ujam_obs.Json.t
val to_json : ?timings:bool -> corpus_report -> Ujam_obs.Json.t
