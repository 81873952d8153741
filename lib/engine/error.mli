(** Typed pipeline errors.

    A corpus run over hundreds of routines must degrade per-routine: a
    nest the model does not support becomes an error record in that
    routine's report, never a process-killing exception.  [guard] is the
    boundary adaptor — it converts the [Invalid_argument]/[Failure]
    invariant exits of the analysis layers into a value tagged with the
    pipeline stage that failed; [check_supported] rejects nests outside
    the modelled subscript class up front. *)

type stage =
  | Load       (** no such kernel, or its builder failed ({!Load}) *)
  | Validate   (** nest outside the supported subscript class *)
  | Parse      (** source text did not parse *)
  | Graph      (** dependence graph / safety analysis *)
  | Tables     (** UGS partition or table construction *)
  | Search     (** unroll-vector selection *)
  | Transform  (** unroll-and-jam / scalar replacement *)
  | Sim        (** cache/CPU simulation *)
  | Native     (** native backend: emit / compile / execute *)

type t = {
  stage : stage;
  routine : string;
  message : string;
  diagnostics : Ujam_analysis.Diagnostic.t list;
      (** located findings behind the failure (empty when the stage has
          no rule coverage); rendered by {!pp} and the JSON emitters
          only when non-empty *)
}

val make :
  stage:stage ->
  routine:string ->
  ?diagnostics:Ujam_analysis.Diagnostic.t list ->
  string ->
  t

val stage_name : stage -> string

val pp : Format.formatter -> t -> unit
(** One line for the error itself, plus one indented line per attached
    diagnostic — callers printing multiple errors should wrap in a
    vertical box. *)

val to_string : t -> string

val guard : stage:stage -> routine:string -> (unit -> 'a) -> ('a, t) result
(** Run a pipeline stage, converting its exceptions into a typed error. *)

val check_supported : routine:string -> Ujam_ir.Nest.t -> (unit, t) result
(** Reject nests the reuse model does not cover (non-unit loop steps,
    subscript coefficients beyond {!Ujam_ir.Supported.max_coefficient},
    constants beyond {!Ujam_ir.Supported.max_constant}) with a typed
    [Validate] error; the class itself is {!Ujam_ir.Supported.violations},
    and every violation is attached as a located [UJ004]/[UJ005]/[UJ031]
    diagnostic ({!Ujam_analysis.Lint.check_supported}). *)
