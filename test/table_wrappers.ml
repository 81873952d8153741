(* Whole-space tables and copy-point keys that only the tests read, as
   thin wrappers over the shipped builders ([Streams.add_unrolled],
   [Solvers.reducer]). *)

open Ujam_linalg
open Ujam_reuse
open Ujam_core

(* The g_T and g_S totals of one UGS. *)
let gts_exact_table space ~localized ugs =
  fst (Streams.add_unrolled (Streams.create_tables space) ~localized ugs)

let gss_exact_table space ~localized ugs =
  snd (Streams.add_unrolled (Streams.create_tables space) ~localized ugs)

(* [(streams, memory_ops, registers)] summed over the nest's UGSs. *)
let summary_tables space ~localized nest =
  let t = Streams.create_tables space in
  List.iter (fun g -> ignore (Streams.add_unrolled t ~localized g)) (Ugs.of_nest nest);
  (t.Streams.stream_table, t.Streams.mem_table, t.Streams.reg_table)

(* [(key, shift)] of a copy point [p]: [A p] reduced by the shipped
   reducer, with [A] the access matrix or its spatial form. *)
let point_class ~a ~localized =
  let reduce = Solvers.reducer ~a ~localized in
  fun p ->
    let key = Vec.to_array (Mat.apply a p) in
    let shift = reduce key in
    (Vec.make key, shift)

let temporal_point_class ~h ~localized = point_class ~a:h ~localized

let spatial_point_class ~h ~localized =
  point_class ~a:(Selfreuse.spatial_matrix h) ~localized
