(** Set-associative LRU cache simulator.

    Addresses are in array elements (8-byte words); geometry comes from
    {!Ujam_machine.Machine}. *)

type t

val create : ?steal_lines:int -> size:int -> line:int -> assoc:int -> unit -> t
(** All quantities in elements; [size] must be a multiple of
    [line * assoc].  [steal_lines] (default 0, must be [< assoc])
    disables that many ways in the last set — a deliberate
    off-by-[n]-lines capacity fault for oracle self-tests. *)

val of_machine : Ujam_machine.Machine.t -> t

val access : t -> int -> bool
(** [access t addr] touches the element at [addr]; returns [true] on a
    hit.  Misses fill the line (LRU eviction).  When the observability
    sink is enabled ({!Ujam_obs.Obs.enable}), every access also bumps
    the process-wide [sim.cache.accesses] / [sim.cache.misses] /
    [sim.cache.evictions] counters (an eviction is a miss that
    displaces a valid line). *)

val access_run : t -> int array -> int array -> int -> unit
(** [access_run t addrs incs trips] is [trips] iterations of [access]
    on each [addrs.(j)] in order, adding [incs.(j)] after its access, so
    [addrs] ends one step past the run.  A direct-mapped cache with a
    power-of-two geometry takes one tag compare per access. *)

val accesses : t -> int
val misses : t -> int
val reset : t -> unit

(** Reference stack-distance implementation (Mattson's LRU stack): a
    fully-associative LRU cache of capacity [C] lines hits exactly the
    accesses whose stack distance is [< C].  O(stack depth) per access —
    a specification, not a fast path; the property tests cross-check the
    set-associative simulator against it. *)
module Stack : sig
  type t

  val create : line:int -> t

  val access : t -> int -> int option
  (** Stack distance (in distinct lines touched since the previous
      access to this line) of the element at [addr]; [None] on a cold
      (first-ever) access.  Updates the stack. *)
end

(** Multi-level memory hierarchy.  Every level observes the full
    reference stream independently: for same-line LRU levels this
    coincides with the probe-next-level-on-miss chain (stack inclusion),
    and it remains well-defined for TLB-style levels whose "line" is the
    page.  {!Ujam_machine.Machine.Level.Write_through} levels do not
    allocate on write misses (write-around). *)
module Hierarchy : sig
  type t

  val create : ?steal_lines:int -> Ujam_machine.Machine.Level.t list -> t
  (** Raises [Invalid_argument] on an invalid geometry
      ({!Ujam_machine.Machine.validate_levels}).  [steal_lines] injects
      the capacity fault of {!val:create} into every level. *)

  val of_machine : ?steal_lines:int -> Ujam_machine.Machine.t -> t
  (** Levels from {!Ujam_machine.Machine.effective_levels}: the flat
      single-level geometry when the machine carries no hierarchy. *)

  val access : t -> ?write:bool -> int -> unit

  val access_run : t -> writes:bool array -> int array -> int array -> int -> unit
  (** {!Cache.access_run} at every level, each from its own copy of the
      start addresses; reference [j] is a write when [writes.(j)]. *)

  val stats : t -> (Ujam_machine.Machine.Level.t * int * int) list
  (** Per level: (level, accesses, misses). *)
end
