(** Oracle layer 2: miss tables vs. the cache simulator.

    The GTS/GSS tables only have to *rank* unroll vectors well — the
    search minimises a balance objective built from them — so the oracle
    checks order, not absolute miss counts: pick a spread of candidate
    vectors across the predicted-miss range, replay each materialized
    unrolled body (after scalar replacement) through the cache model of
    [lib/sim], and flag pairs where the tables claim a clear advantage
    and the simulator measures a clear advantage the other way.

    Absolute rates differ legitimately (the table is a steady-state
    estimate; the simulator sees cold misses, conflicts and finite
    capacity), hence the relative/absolute significance margins.  Only
    candidates whose unroll factors divide the trip counts are replayed,
    so the simulated body is semantically the original nest. *)

type outcome = {
  simulated : int;  (** candidate vectors actually replayed *)
  mismatches : Mismatch.t list;
}

val run : Subject.t -> outcome
(** Up to 4 candidates, a pair flagged when both gaps exceed 0.02
    misses per original iteration plus half the larger rate; a nest
    over 150_000 simulated references per candidate is skipped
    ([simulated = 0]). *)

val check :
  ?bound:int -> ?max_loops:int -> machine:Ujam_machine.Machine.t -> Ujam_ir.Nest.t -> outcome
(** {!run} on a fresh {!Subject.make}, whose [bound]/[max_loops]
    default to the engine's 4/2. *)
