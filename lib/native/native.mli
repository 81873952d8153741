(** The ground-truth column: compile emitted programs, run them, and
    compare their per-array checksums against the reference
    interpreter.

    The equivalence judgement is per {e variant}: a variant's native
    checksums must match {!Ujam_sim.Interp.run} {e of that same
    variant's nest} — this catches emitter and toolchain bugs on any
    nest, including triangular and non-divisible unrolls where the
    transformed nest is legitimately not element-wise equal to the
    original (the remainder iterations live outside the perfect-nest
    IR).  Original-vs-transformed equality is a separate claim made
    only where it holds exactly, i.e. {!check_choice} clamps the chosen
    vector with {!Ujam_ir.Unroll.clamp_divisible} first. *)

type outcome = {
  vname : string;
  seconds : float;  (** wall CPU seconds per timed repetition *)
  checksums : (string * float) list;  (** per array, emitted order *)
}

type unit_outcomes = { uname : string; outcomes : outcome list }

val default_tolerance : float
(** Relative checksum tolerance, [1e-9]. *)

val run_units :
  ?drop_last_stmt:bool ->
  Toolchain.t ->
  Emit.unit_spec list ->
  (unit_outcomes list, string) result
(** Emit one program for the units, compile it in a fresh temp
    directory, execute it, parse the RESULT lines.  [drop_last_stmt]
    threads the fault-injection hook through to {!Emit.program}. *)

val reference : Emit.unit_spec -> (string * (string * float) list) list
(** Interpreter-side checksums: for each variant (by name), each array's
    reduction of {!Ujam_sim.Interp.final_value} against
    {!Ujam_sim.Interp.cell_weight} over the unit's union box, visited in
    {!Emit.box_iter} order so the float sums associate identically. *)

type diff = { array_name : string; native : float; expected : float }

type equivalence = {
  vname : string;
  max_rel_err : float;
  diffs : diff list;  (** non-empty exactly when the variant failed *)
}

val equivalences :
  ?tol:float -> Emit.unit_spec -> unit_outcomes -> equivalence list
(** Pair native outcomes with {!reference} by variant name. *)

(* ---- the engine hook --------------------------------------------------- *)

type choice_check = {
  name : string;
  u : Ujam_linalg.Vec.t;  (** the vector actually validated *)
  clamped : bool;  (** chosen vector reduced to a divisible one *)
  equivalent : bool;
  max_rel_err : float;
  seconds_original : float;
  seconds_transformed : float;
  measured_speedup : float;  (** original time / transformed time *)
}

val check_choice :
  ?repeats:int ->
  ?seed:int ->
  ?tol:float ->
  Toolchain.t ->
  Ujam_core.Driver.report ->
  (choice_check, Ujam_engine.Error.t) result
(** Re-validate an optimizer decision on real hardware: compile and run
    the original nest and the chosen unroll (clamped to divisibility),
    check both against the interpreter, and measure the speedup the
    tables promised.  All failures (no usable transform, compile error,
    runtime error) are typed [Native]-stage errors. *)
