(** Oracle layer 3: N-way differential check across the model registry.

    Every registered strategy ({!Ujam_engine.Model.all}) analyzes the
    subject's {!Ujam_core.Analysis_ctx}; each chosen unroll vector is
    then *measured* by its cell of the subject's materialised sweep
    ({!Subject.metrics}) and compared against the exhaustive
    Wolf–Maydan–Chen choice over the same sweep under the same cache
    flavour.  A strategy whose measured objective (distance from machine
    balance) is worse than the reference's by more than 1e-6, or whose
    chosen vector breaks the register file in truth, is reported.

    The ["ugs"] and ["no-cache"] table strategies compute the exact same
    quantities as the reference on the supported class, so for them any
    divergence is an unexplained table bug even at tight [eps].  The
    ["dep"] strategy is a documented coarser approximation (Carr,
    PACT'96); its divergences carry an [explained] note.  The reference
    itself is skipped. *)

val run : Subject.t -> Mismatch.t list

val check :
  ?bound:int -> ?max_loops:int -> machine:Ujam_machine.Machine.t -> Ujam_ir.Nest.t -> Mismatch.t list
(** {!run} on a fresh {!Subject.make}, [bound]/[max_loops] the engine's
    4/2. *)
