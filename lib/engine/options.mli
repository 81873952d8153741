(** The analysis options every search runs under — machine, model
    (hierarchy level included, as [ugs-l<K>]), unroll-space bound, loop
    cap, sequence search and lint rules — with their name tables, their
    valid ranges, and how a request's overrides resolve against a front
    end's defaults.  [ujc]'s converters and the serve daemon's request
    path both go through here; each keeps its own error wording. *)

type overrides = {
  machine : string option;
  model : string option;
  bound : int option;
  max_loops : int option;
  seq : bool option;
  rules : string list option;
}
(** A request's spelling: each [Some] replaces the default. *)

type t = {
  machine : Ujam_machine.Machine.t;
  model : (module Model.MODEL);
  bound : int;
  max_loops : int;
  seq : bool;
  rules : string list option;  (** lint filter; [None] keeps every rule *)
}

type error =
  | Unknown of { what : string; value : string; known : string list }
  | Below of { what : string; value : int; min : int }

val to_string : error -> string
(** [unknown machine "vax" (known: alpha, ...)], [bound must be >= 0 (got -1)]. *)

val machine : string -> (Ujam_machine.Machine.t, error) result
(** {!Ujam_machine.Presets.of_name} over {!Ujam_machine.Presets.names}. *)

val model : string -> ((module Model.MODEL), error) result
(** {!Model.find} over {!Model.names}. *)

val bound : int -> (int, error) result
(** [>= 0]. *)

val level : int -> (int, error) result
(** [>= 1]. *)

val rules : string list -> (string list, error) result
(** Every id must be a {!Ujam_analysis.Lint.rules} entry. *)

val resolve : t -> overrides -> (t, error) result
(** Look the overrides up and check every range, the defaults' bound
    included. *)

val fingerprint : op:string -> extra:string -> t -> Ujam_ir.Nest.t -> string
(** {!Result_cache.fingerprint} of the tuple, the rule filter appended
    to [extra] when set. *)
