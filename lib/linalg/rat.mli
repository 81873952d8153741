(** Exact rational arithmetic over native integers.

    Values are kept in canonical form: the denominator is positive and
    [gcd (abs num) den = 1].  Native [int] (63-bit) precision is ample for
    the small matrices produced by loop-nest analysis; overflow would
    require subscript coefficients far outside any real program. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] is the canonical rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t
val num : t -> int
val den : t -> int

val is_zero : t -> bool
val is_integer : t -> bool

val to_int_exn : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val to_float : t -> float

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on division by zero. *)

val inv : t -> t
val abs : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int

val min : t -> t -> t
val max : t -> t -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
