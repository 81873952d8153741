(** The Table 1 experiment: input-dependence share of routine dependence
    graphs over a corpus. *)

type routine_stats = {
  name : string;
  stats : Ujam_depend.Stats.t;  (** summed over the routine's nests *)
}

type report = {
  routines : int;                (** corpus size *)
  with_deps : int;               (** routines that have any dependences *)
  total_deps : int;
  total_input : int;
  mean_input_fraction : float;   (** mean over routines with dependences *)
  stddev_input_fraction : float;
  mean_input_count : float;
  buckets : (string * int) list; (** Table 1 rows *)
}

val measure : Generator.routine list -> report
(** Routines without dependences are excluded from per-routine means,
    exactly as in the paper. *)

val table1_buckets : (string * (float -> bool)) list
(** The paper's bucket boundaries: 0%, 1–32%, 33–39%, …, 90–100%. *)

val pp : Format.formatter -> report -> unit
