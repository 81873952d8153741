(** The evaluation suite as a catalogue: Table 2 of the paper. *)

type entry = {
  num : int;           (** row number in Table 2 *)
  name : string;
  description : string;
  build : ?n:int -> unit -> Ujam_ir.Nest.t;
}

val all : entry list
(** The 19 loops, in Table 2 order. *)

val find : string -> entry option
(** A Table-2 loop by name, else an {!Extras} kernel as an entry
    numbered 0: the one kernel lookup of the CLI and the daemon. *)

val pp_table : Format.formatter -> unit -> unit
