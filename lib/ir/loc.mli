(** Structured source locations inside a loop nest.

    A location names the smallest enclosing program object a message is
    about: the nest, optionally a loop level, a body statement, a
    reference site within that statement, and — for nests that came
    through the textual front end — a source line.  Every field is
    optional so producers state exactly what they know; {!pp} renders
    whatever is present.  The parser's located errors and the analyzer's
    diagnostics share this one type, so a parse failure and a lint
    finding print and serialise the same way. *)

type t = {
  nest : string option;  (** nest name *)
  line : int option;     (** 1-based source line (parsed inputs only) *)
  level : int option;    (** loop level, 0 = outermost *)
  stmt : int option;     (** statement index in the body, 0-based *)
  site : int option;     (** reference-site id ({!Site.t}) *)
}

val none : t

val nest : string -> t
val line : ?nest:string -> int -> t
val level : ?nest:string -> int -> t
val stmt : ?nest:string -> ?site:int -> int -> t

val with_nest : t -> string -> t
(** Fill in the nest name unless one is already present. *)

val is_none : t -> bool

val pp : Format.formatter -> t -> unit
(** Compact rendering of the known fields, outermost first, e.g.
    ["dmxpy0:loop1"], ["jacobi:stmt0:site2"], ["line 3"]. *)

val to_string : t -> string

val to_fields : t -> (string * int) list
(** The present positional fields as [(key, value)] pairs in rendering
    order (["line"], ["level"], ["stmt"], ["site"]) — the JSON emitters
    in higher layers build objects from these without depending on a
    JSON type here. *)
