(** Deterministic Domain-parallel map over an array of jobs.

    Domains claim jobs from one shared atomic index.  Each result is
    written into its input slot, so the output ordering equals the
    input ordering regardless of domain count or scheduling — running
    with [domains:1] and [domains:n] is byte-identical. *)

val clamp_domains : int -> int -> int
(** [clamp_domains domains n] bounds the worker count to [1..n]. *)

val map :
  ?domains:int ->
  ?on_claim:(remaining:int -> unit) ->
  f:(domain:int -> 'a -> 'b) ->
  'a array ->
  'b array
(** [on_claim ~remaining] fires as each job is claimed (from the
    claiming domain) with the number of still-unclaimed jobs — the
    hook the engine uses for queue-occupancy metrics. *)
