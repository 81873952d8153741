(** The rule engine: located diagnostics over a loop nest.

    Rules run in two phases.  {e Structure} rules need only the IR —
    level ordering, trip counts, subscript shape, the supported-class
    fence (steps and coefficient magnitudes), separability, flop
    presence.  {e Analysis} rules need the dependence graph and the
    balance tables — Star directions, safety clamping of the search
    box, register pressure, and the table-monotonicity guard — and are
    skipped when the structure phase reports any Error, because the
    analysis pipeline's own precondition is exactly "no structural
    error".  Consequently a supported, well-formed nest can only
    collect Warnings and Infos: zero Error diagnostics on a clean
    routine is part of the contract and pinned by the test suite.

    Rule catalogue (stable ids):

    - [UJ000] Error — parse failure (see {!of_parse_error}).
    - [UJ001] Error — malformed IR: loop levels out of order, bound
      depth mismatch, empty body.
    - [UJ002] Warning — a loop with a non-positive constant trip count.
    - [UJ003] Error — subscript depth differs from the nest depth.
    - [UJ004] Error — non-unit loop step (outside the supported class).
    - [UJ005] Error — subscript coefficient above
      {!Ujam_ir.Supported.max_coefficient}, located at the site.
    - [UJ031] Error — subscript constant (located at the site) or
      loop-bound constant (located at the loop) above
      {!Ujam_ir.Supported.max_constant}; with UJ004 and UJ005 the one
      scan {!Ujam_ir.Supported.violations}.
    - [UJ006] Warning — coupled (non-separable-SIV) subscripts: the
      UGS model still counts them, but dependence distances may go
      inconsistent ([Star]) and cost more legality than necessary.
    - [UJ007] Info — dependences with unknown ([*]) components;
      legality falls back to direction information only.
    - [UJ008] Warning — the requested search box was clamped by
      {!Ujam_depend.Safety.max_safe_unroll} (a carried dependence caps
      the legal unroll below the requested bound).
    - [UJ009] Warning — register pressure: even the chosen unroll
      vector wants more floating-point registers than the machine has.
    - [UJ010] Warning — register-table monotonicity violation; the
      pruned search is degraded to the exhaustive scan (see
      {!Monotone}).
    - [UJ011] Info — no floating-point work; loop balance is undefined
      and unroll-and-jam has nothing to improve.

    - [UJ027] Warning — a UGS the nest loads heavily has its dominant
      reuse distance beyond a cache level's capacity at the chosen
      unroll vector (see {!Cachecheck}).
    - [UJ028] Info — no carried reuse fits a cache level: every reuse
      distance in the nest's profile exceeds that level's capacity.
    - [UJ029] Warning — the chosen unroll vector degrades a level's
      predicted miss ratio relative to the nest as written.
    - [UJ030] Error — invalid cache geometry in the machine
      description ({!Ujam_machine.Machine.validate_levels}); checked
      before both phases, and the only Error a well-formed nest on a
      well-formed machine can never collect.

    [UJ020]–[UJ022] (transformation post-conditions) are produced by
    {!Verify}, not by [run].  Every fired rule bumps the Obs counter
    [lint.rule.<id>]. *)

val rules : (string * Diagnostic.severity * string) list
(** The catalogue above as [(id, severity, one-line description)],
    in id order — the source of truth for [--rules] validation and the
    DESIGN.md table. *)

val run :
  ?rules:string list ->
  ?level:int ->
  ?bound:int ->
  ?max_loops:int ->
  machine:Ujam_machine.Machine.t ->
  Ujam_ir.Nest.t ->
  Diagnostic.t list
(** Run both phases over one nest.  [rules] restricts the output to
    the given ids (default: all); [level] restricts the miss-profile
    rules (UJ027–UJ029) to one 1-based hierarchy level.
    [bound]/[max_loops] shape the search box exactly as in
    {!Ujam_core.Analysis_ctx.create}, so UJ008/UJ009/UJ010 describe
    the same search the engine would run.  Diagnostics come back
    sorted by severity, then rule id, then location. *)

val run_ctx :
  ?rules:string list -> ?level:int -> Ujam_core.Analysis_ctx.t -> Diagnostic.t list
(** Same, reusing an existing context (and its memoised tables). *)

val check_supported : Ujam_ir.Nest.t -> Diagnostic.t list
(** Just the supported-class fence: one located UJ004/UJ005/UJ031
    Error per {!Ujam_ir.Supported.violations} entry, in its order. *)

val of_parse_error : Ujam_ir.Parse.error -> Diagnostic.t
(** A parse failure as a located [UJ000] Error. *)
