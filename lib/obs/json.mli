(** Minimal JSON representation shared by the whole system.

    Construction and compact serialisation for machine-readable output
    (the CLI pins its formats with cram tests, so stability matters
    more than features), plus a small reader so the bench compare gate
    and the trace validator can load files the emitter wrote.
    Non-finite floats render as [null] (JSON has no [Infinity]
    literal). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse standard JSON.  Numbers with a fraction or exponent become
    [Float], others [Int]; [\uXXXX] escapes decode to UTF-8. *)

val member : string -> t -> t option
(** [member k (Obj fields)] looks up key [k]; [None] on other shapes. *)

val to_float_opt : t -> float option
(** Numeric coercion: [Float] as-is, [Int] widened, otherwise [None]. *)

val ints : int list -> t
(** [List] of [Int]s — unroll vectors and level lists. *)
