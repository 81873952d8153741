(** Shared, memoized analysis context for one (nest, machine) pair.

    Every selection strategy consumes the same derived facts: the
    dependence graph (with and without input edges), the safety vector,
    the locality ranking of the outer loops, the UGS partition, the
    bounded unroll space, and the GTS/GSS/RRS balance tables.  Before
    this module each code path re-derived them from scratch (and
    [Driver.speedup_estimate] rebuilt the balance tables a second time on
    data its report already held).  A context computes each fact at most
    once, behind lazy memo fields, and exposes per-stage wall-clock
    counters so corpus runs can report where analysis time goes. *)

type stage = Graph | Tables | Search

val stage_name : stage -> string
(** The span / report name of a stage: ["graph"], ["tables"],
    ["search"]. *)

type timings = {
  mutable graph_s : float;   (** dependence graphs + safety *)
  mutable tables_s : float;  (** UGS tables (GTS/GSS/RRS) *)
  mutable search_s : float;  (** unroll-vector selection *)
}

type t

val create :
  ?bound:int ->
  ?max_loops:int ->
  machine:Ujam_machine.Machine.t ->
  Ujam_ir.Nest.t ->
  t
(** Defaults match {!Driver.optimize}: [bound] 10, [max_loops] 2.
    Nothing is computed until the corresponding accessor is first
    called. *)

val nest : t -> Ujam_ir.Nest.t
val machine : t -> Ujam_machine.Machine.t
val bound : t -> int
val max_loops : t -> int

val graph : t -> Ujam_depend.Graph.t
(** Dependence graph without input edges (safety analysis). *)

val graph_with_input : t -> Ujam_depend.Graph.t
(** Dependence graph including read-read edges (dependence model,
    Table-1 statistics). *)

val safety : t -> int array
(** Per-level legal extra copies ({!Ujam_depend.Safety.max_safe_unroll}). *)

val ugs : t -> Ujam_reuse.Ugs.t list
(** The UGS partition of the nest, computed once and shared by the
    locality ranking and the balance tables. *)

val sites : t -> Ujam_ir.Site.t list
(** All reference sites of the nest in textual order. *)

val ranked : t -> (int * float) list
(** Locality ranking of the outer loops, best first. *)

val unroll_levels : t -> int list
(** The levels joining the unroll space: the best [max_loops] ranked
    levels with non-zero safety bounds. *)

val space : t -> Unroll_space.t
(** The bounded unroll space over {!unroll_levels}. *)

val balance : t -> Balance.t
(** The prepared balance tables; built at most once per context. *)

val table_builds : t -> int
(** How many times this context built its balance tables — at most 1;
    exposed so tests can pin the "tables built exactly once" invariant. *)

val timed : t -> stage -> (unit -> 'a) -> 'a
(** Run a computation, charging its wall-clock time to a stage
    counter. *)

val timings : t -> timings
val zero_timings : unit -> timings
val pp_timings : Format.formatter -> timings -> unit
