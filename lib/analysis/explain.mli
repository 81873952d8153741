(** Model-degradation explain mode: {e why} did the analyzer pick (or
    refuse) an unroll vector for this nest?

    [run] assembles one report from the same memoised context the
    engine uses: supported status, coupled sites, Star dependences,
    the per-level legality caps and reuse ranking, the clamped search
    box, the monotonicity guard's verdict, and the chosen vector under
    the cache model (plus what the cache-less model would have chosen,
    to show whether the cache term mattered).  The [model] field names
    the effective search path:

    - ["unsupported"] — outside the supported class (or malformed);
      no table model applies and the nest is left alone.
    - ["trivial"] — supported, but every legal box is the single
      point [0]: legality (or a depth-1 nest) leaves nothing to
      unroll.
    - ["ugs"] — the paper's path: UGS tables + pruned search.
    - ["ugs-exhaustive"] — UGS tables, but the register table failed
      the monotonicity guard, so the pruned search was degraded to the
      exhaustive scan (see {!Monotone}).

    [reasons] collects the human-readable causes in rendering order;
    [diagnostics] carries the underlying located lint output. *)

type t = {
  nest : string;
  machine : string;
  depth : int;
  flops : int;                       (** per iteration *)
  supported : string option;         (** violation message when outside *)
  coupled_sites : int;
  star_edges : int;
  safety : int array;                (** per-level legality caps *)
  ranked : (int * float) list;       (** reuse ranking of outer levels *)
  unroll_levels : int list;
  box : int array;                   (** search-box bounds actually used *)
  clamped : (int * int) list;        (** (level, cap) where box < request *)
  monotone : Monotone.violation option;
  choice : Ujam_core.Search.choice option;          (** cache model *)
  choice_no_cache : Ujam_core.Search.choice option; (** cache-less model *)
  model : string;
  sequence : Passes.step list;
      (** legalizing prefix the seq search chose (with per-step
          why-legal notes); non-empty only with [~seq:true] *)
  reasons : string list;
  diagnostics : Diagnostic.t list;
  cache : Cachecheck.t option;
      (** per-level miss profile at the chosen vector ({!Cachecheck});
          [None] when unsupported or the iteration box is unknown *)
}

val run :
  ?bound:int ->
  ?max_loops:int ->
  ?level:int ->
  ?seq:bool ->
  machine:Ujam_machine.Machine.t ->
  Ujam_ir.Nest.t ->
  t
(** With [~seq:true] the report additionally runs
    {!Seqsearch.search}: a winning prefix switches [model] to
    ["ugs+seq"], fills [sequence], repoints [choice] at the legalized
    nest's vector, and adds the [UJ026] certificate to [diagnostics];
    otherwise a reason records why no prefix applied. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Ujam_obs.Json.t
