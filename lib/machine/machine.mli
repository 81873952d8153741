(** Target-machine descriptions.

    The balance model needs issue rates, the register file size, and the
    cache geometry; the simulator additionally uses latencies.  All cache
    quantities are in array elements (double words), matching the paper's
    convention that a word equals the floating-point precision.

    A machine may optionally carry a multi-level memory hierarchy
    ({!Level.t} list, outermost-first: L1, then L2, then a TLB-style
    level whose "line" is the page).  When [levels] is empty the legacy
    single-level fields describe the whole hierarchy, so every pinned
    format and preset is unchanged. *)

module Level : sig
  type write_policy =
    | Write_allocate  (** misses fill the line; writes behave like reads *)
    | Write_through
        (** write misses do not allocate (write-around): a pure-write
            stream never builds up residency at this level *)

  type t = {
    name : string;   (** e.g. "L1", "L2", "TLB" *)
    size : int;      (** capacity, elements *)
    line : int;      (** line (or page) size, elements *)
    assoc : int;     (** ways; [size / (line * assoc)] sets *)
    access : int;    (** hit cost, cycles *)
    penalty : int;   (** additional miss cost, cycles *)
    write : write_policy;
  }

  val make :
    name:string ->
    size:int ->
    ?line:int ->
    ?assoc:int ->
    ?access:int ->
    ?penalty:int ->
    ?write:write_policy ->
    unit ->
    t

  val pp : Format.formatter -> t -> unit
end

type geometry_error = {
  level : string;  (** offending level name; ["cache"] for the flat fields *)
  reason : string;
}
(** A typed cache-geometry rejection: produced by {!make_checked} /
    {!validate_levels} instead of [Sim.Cache.create] raising deep inside
    a run; the analysis layer surfaces it as a located diagnostic
    (UJ030). *)

val geometry_message : geometry_error -> string

val validate_levels : Level.t list -> (unit, geometry_error) result
(** Each level's size must be a positive multiple of [line * assoc], and
    capacities must be monotone non-decreasing from L1 outwards. *)

type t = {
  name : string;
  mem_issue : int;      (** memory operations issued per cycle *)
  fp_issue : int;       (** floating-point operations issued per cycle *)
  fp_latency : int;     (** cycles until an FP result is available *)
  fp_registers : int;
  cache_size : int;     (** elements *)
  cache_line : int;     (** elements *)
  associativity : int;  (** ways; [cache_size / (line * assoc)] sets *)
  cache_access : int;   (** hit cost [C_s], cycles *)
  miss_penalty : int;   (** additional miss cost [C_m], cycles *)
  prefetch_bandwidth : float;  (** prefetch issues per cycle; 0 = none *)
  levels : Level.t list;
      (** optional memory hierarchy, innermost (L1) first; [[]] means
          "use the flat [cache_*] fields as the only level" *)
}

val balance : t -> float
(** Machine balance [beta_M = mem_issue / fp_issue]: words fetched per
    flop at peak. *)

val miss_ratio_cost : t -> float
(** [C_m / C_s]: the unserviced-prefetch multiplier of Sec. 3.2. *)

val make :
  name:string ->
  ?mem_issue:int ->
  ?fp_issue:int ->
  ?fp_latency:int ->
  ?fp_registers:int ->
  ?cache_size:int ->
  ?cache_line:int ->
  ?associativity:int ->
  ?cache_access:int ->
  ?miss_penalty:int ->
  ?prefetch_bandwidth:float ->
  ?levels:Level.t list ->
  unit ->
  t
(** Raises [Invalid_argument] on a bad geometry (the rendered
    {!geometry_error}); use {!make_checked} for the typed variant. *)

val make_checked :
  name:string ->
  ?mem_issue:int ->
  ?fp_issue:int ->
  ?fp_latency:int ->
  ?fp_registers:int ->
  ?cache_size:int ->
  ?cache_line:int ->
  ?associativity:int ->
  ?cache_access:int ->
  ?miss_penalty:int ->
  ?prefetch_bandwidth:float ->
  ?levels:Level.t list ->
  unit ->
  (t, geometry_error) result

val effective_levels : t -> Level.t list
(** [levels] when non-empty, else the single level synthesised from the
    flat [cache_*] fields (named "L1").  Never empty. *)

val level_at : t -> int -> Level.t option
(** 1-based lookup into {!effective_levels}. *)

val pp : Format.formatter -> t -> unit
