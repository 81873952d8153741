(** The one way a front end gets a nest: a kernel name or nest text,
    loaded into a {!Ujam_ir.Nest.t} or refused with a typed {!Error.t}.
    The CLI and the serve daemon both load through here, so they accept
    the same kernels (Table 2 and {!Ujam_kernels.Extras}, through
    {!Ujam_kernels.Catalogue.find}) and report parse failures with the
    same located diagnostic. *)

type source =
  | Inline of string  (** nest text in the Fortran-style syntax *)
  | Kernel of string * int option  (** kernel name, optional problem size *)

val nest : ?name:string -> source -> (Ujam_ir.Nest.t, Error.t) result
(** [name] names a nest parsed from text (default ["nest"]); a kernel
    keeps its own.  An unknown kernel, or a kernel builder that raises,
    is a [Load] error; text that does not parse is a [Parse] error
    carrying the located UJ000 diagnostic
    ({!Ujam_analysis.Lint.of_parse_error}).  Loading does not check the
    supported class: that is {!Error.check_supported}'s job. *)
