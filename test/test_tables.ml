(* The paper's table computations (Figures 2, 3, 5) and their exact
   counterparts, validated against literal materialisation of the
   unrolled body — the central correctness statement of this
   reproduction. *)

open Ujam_linalg
open Ujam_ir
open Ujam_ir.Build
open Ujam_core
open Ujam_reuse

let v = Vec.of_list
let innermost d = Subspace.span_dims ~dim:d [ d - 1 ]

(* Ground truth: group counts of the literally unrolled body. *)
let materialized_counts nest u =
  let unrolled = Unroll.unroll_and_jam nest u in
  let d = Nest.depth unrolled in
  let localized = innermost d in
  List.fold_left
    (fun (gt, gs) g ->
      ( gt + Groups.count (Groups.group_temporal ~localized g),
        gs + Groups.count (Groups.group_spatial ~localized g) ))
    (0, 0) (Ugs.of_nest unrolled)

(* Ground truth: stream summary of the literally unrolled body. *)
let materialized_summary nest u =
  let unrolled = Unroll.unroll_and_jam nest u in
  Streams.summarize
    (Streams.of_body ~localized:(innermost (Nest.depth unrolled)) unrolled)

(* The tables the search reads (built by [Balance.prepare]), as
   (g_T, g_S) summed over the UGSs. *)
let exact_counts nest space =
  let localized = innermost (Nest.depth nest) in
  let tables =
    List.map
      (fun g ->
        ( Table_wrappers.gts_exact_table space ~localized g,
          Table_wrappers.gss_exact_table space ~localized g ))
      (Ugs.of_nest nest)
  in
  fun u ->
    List.fold_left
      (fun (gt, gs) (t, s) ->
        (gt + Unroll_space.Table.get t u, gs + Unroll_space.Table.get s u))
      (0, 0) tables

(* The paper's Figure 2/3 tables; cells hold per-copy counts, so the
   group count is the prefix sum. *)
let incremental_counts nest space =
  let localized = innermost (Nest.depth nest) in
  let tables =
    List.map
      (fun g ->
        (Tables.gts_table space ~localized g, Tables.gss_table space ~localized g))
      (Ugs.of_nest nest)
  in
  fun u ->
    List.fold_left
      (fun (gt, gs) (t, s) -> (gt + Tables.total t u, gs + Tables.total s u))
      (0, 0) tables

(* The stream tables the search reads, as one summary per cell. *)
let summary_cells nest space =
  let streams, mem, reg =
    Table_wrappers.summary_tables space ~localized:(innermost (Nest.depth nest)) nest
  in
  fun u ->
    { Streams.streams = Unroll_space.Table.get streams u;
      memory_ops = Unroll_space.Table.get mem u;
      registers = Unroll_space.Table.get reg u }

(* [true] when [f] holds at every vector of [space]. *)
let everywhere space f =
  let ok = ref true in
  Unroll_space.iter space (fun u -> if not (f u) then ok := false);
  !ok

let print_case (nest, space) =
  Printf.sprintf "%s\nbounds=%s" (Gen.nest_print nest)
    (String.concat ","
       (Array.to_list (Array.map string_of_int (Unroll_space.bounds space))))

let test_paper_example () =
  (* Figure 1 of the paper: A(I,J) store and A(I-2,J) read; unrolling the
     I loop merges the copies from offset 2 on. *)
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  let nest =
    nest "fig1"
      [ loop d "I" ~level:0 ~lo:3 ~hi:18 (); loop d "J" ~level:1 ~lo:1 ~hi:16 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i -$ 2; j ] +: f 1.0 ]
  in
  let space = Unroll_space.make ~bounds:[| 3; 0 |] in
  let a = List.hd (Ugs.of_nest nest) in
  let exact = Table_wrappers.gts_exact_table space ~localized:(innermost d) a in
  let gts u = Unroll_space.Table.get exact u in
  Alcotest.(check int) "2 GTSs originally" 2 (gts (v [ 0; 0 ]));
  Alcotest.(check int) "u=1: 4 (no merge yet)" 4 (gts (v [ 1; 0 ]));
  Alcotest.(check int) "u=2: first copy merges" 5 (gts (v [ 2; 0 ]));
  Alcotest.(check int) "u=3: still leader+copies" 6 (gts (v [ 3; 0 ]));
  (* and the incremental table agrees *)
  let t = Tables.gts_table space ~localized:(innermost d) a in
  List.iter
    (fun u -> Alcotest.(check int) "incremental" (gts (v u)) (Tables.total t (v u)))
    [ [ 0; 0 ]; [ 1; 0 ]; [ 2; 0 ]; [ 3; 0 ] ]

let test_invariant_direction () =
  (* C(I,J) in a (J,K,I) nest: unrolling K never multiplies the groups. *)
  let nest = Ujam_kernels.Kernels.mmjki ~n:12 () in
  let d = Nest.depth nest in
  let space = Unroll_space.make ~bounds:[| 3; 3; 0 |] in
  let c =
    List.find (fun (g : Ugs.t) -> String.equal g.Ugs.base "C") (Ugs.of_nest nest)
  in
  let exact = Table_wrappers.gts_exact_table space ~localized:(innermost d) c in
  let gts u = Unroll_space.Table.get exact u in
  Alcotest.(check int) "K-unrolling collapses" 1 (gts (v [ 0; 3; 0 ]));
  Alcotest.(check int) "J-unrolling multiplies" 4 (gts (v [ 3; 0; 0 ]));
  Alcotest.(check int) "mixed" 4 (gts (v [ 3; 3; 0 ]))

(* Every catalogue kernel over a uniform box of [bound] on each outer
   level: [check name u] runs at every cell. *)
let over_catalogue ~bound check =
  List.iter
    (fun (e : Ujam_kernels.Catalogue.entry) ->
      let nest = e.Ujam_kernels.Catalogue.build ~n:12 () in
      let d = Nest.depth nest in
      let bounds = Array.make d bound in
      bounds.(d - 1) <- 0;
      let space = Unroll_space.make ~bounds in
      let check_cell = check nest space in
      Unroll_space.iter space (fun u ->
          check_cell
            (Printf.sprintf "%s at %s" e.Ujam_kernels.Catalogue.name (Vec.to_string u))
            u))
    Ujam_kernels.Catalogue.all

let test_kernel_suite_exact_vs_materialized () =
  over_catalogue ~bound:2 (fun nest space ->
      let exact = exact_counts nest space in
      let summary = summary_cells nest space in
      fun name u ->
        Alcotest.(check (pair int int))
          name (materialized_counts nest u) (exact u);
        Alcotest.(check bool)
          (name ^ " streams") true
          (materialized_summary nest u = summary u))

let test_kernel_suite_incremental_vs_exact () =
  over_catalogue ~bound:3 (fun nest space ->
      let exact = exact_counts nest space in
      let incremental = incremental_counts nest space in
      fun name u -> Alcotest.(check (pair int int)) name (exact u) (incremental u))

(* The deepest spaces the search reads: 4-deep generated nests (the
   generator's deep mode) unrolled by up to 3 on each outer level.
   [Balance.prepare]'s cells must equal the materialised body there. *)
let test_deep_prepare_vs_materialized () =
  let st = Random.State.make [| 1997 |] in
  let rec deep_nests acc idx =
    if List.length acc >= 4 then List.rev acc
    else
      let r = Ujam_workload.Generator.routine ~deep:true st idx in
      deep_nests
        (List.filter (fun n -> Nest.depth n = 4) r.Ujam_workload.Generator.nests
        @ acc)
        (idx + 1)
  in
  List.iter
    (fun nest ->
      let space = Unroll_space.make ~bounds:[| 3; 3; 3; 0 |] in
      let t = Balance.prepare ~machine:Ujam_machine.Presets.alpha space nest in
      Unroll_space.iter space (fun u ->
          let name = Printf.sprintf "%s at %s" (Nest.name nest) (Vec.to_string u) in
          let gt, gs =
            List.fold_left
              (fun (gt, gs) (_, g_t, g_s) -> (gt + g_t, gs + g_s))
              (0, 0) (Balance.group_counts t u)
          in
          let m = materialized_summary nest u in
          Alcotest.(check (pair int int)) name (materialized_counts nest u) (gt, gs);
          Alcotest.(check (pair int int))
            (name ^ " memory ops, registers")
            (m.Streams.memory_ops, m.Streams.registers)
            (Balance.memory_ops t u, Balance.registers t u)))
    (deep_nests [] 0)

let test_rrs_partition () =
  (* vpenta: F(I,J) read+write split at the definition; F(I,J-1) and
     F(I,J-2) are their own streams. *)
  let nest = Ujam_kernels.Kernels.vpenta7 ~n:12 () in
  let d = Nest.depth nest in
  let streams = Rrs.partition ~localized:(innermost d) nest in
  Alcotest.(check int) "six streams" 6 (List.length streams);
  let f_streams =
    List.filter (fun (s : Streams.stream) -> String.equal s.Streams.base "F") streams
  in
  Alcotest.(check int) "F splits into read + def + 2 lagged" 4
    (List.length f_streams)

let test_rrs_paper_figure6 () =
  (* Figure 6: def A(I+1,J), two uses A(I,J); before unrolling the def
     cannot feed the uses in the innermost loop (reuse crosses the I
     loop), after unrolling I by 1 it can. *)
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  let nest =
    nest "fig6"
      [ loop d "I" ~level:0 ~lo:1 ~hi:16 (); loop d "J" ~level:1 ~lo:1 ~hi:16 () ]
      [ aref "B" [ i; j ] <<- rd "A" [ i; j ] +: rd "A" [ i; j ];
        aref "A" [ i +$ 1; j ] <<- rd "B" [ i; j ] *: f 2.0 ]
  in
  let space = Unroll_space.make ~bounds:[| 2; 0 |] in
  let _, mem, _ = Table_wrappers.summary_tables space ~localized:(innermost d) nest in
  (* u=0: one A load (the two uses share it), the A def's store, the B
     def's store (its same-iteration read comes from the register) *)
  Alcotest.(check int) "original memory ops" 3
    (Unroll_space.Table.get mem (v [ 0; 0 ]));
  (* u=1: copy 1's A(I+1,J) uses are fed by copy 0's A(I+1,J) def — the
     Figure 6 merge.  Memory ops: 1 surviving A load + 2 A stores + 2 B
     stores. *)
  Alcotest.(check int) "unrolled memory ops" 5
    (Unroll_space.Table.get mem (v [ 1; 0 ]));
  (* u=2 adds one more def/copy pair but still a single A load *)
  Alcotest.(check int) "u=2 memory ops" 7
    (Unroll_space.Table.get mem (v [ 2; 0 ]))

let test_register_table_spans () =
  (* A(I,J) = A(I,J-2): value must survive two innermost iterations ->
     3 registers for the chain, 1 for the def stream. *)
  let d = 2 in
  let i = var d 0 and j = var d 1 in
  let nest =
    nest "lag2"
      [ loop d "I" ~level:0 ~lo:1 ~hi:8 (); loop d "J" ~level:1 ~lo:3 ~hi:18 () ]
      [ aref "A" [ i; j ] <<- rd "A" [ i; j -$ 2 ] +: f 1.0 ]
  in
  let space = Unroll_space.make ~bounds:[| 1; 0 |] in
  let _, _, reg = Table_wrappers.summary_tables space ~localized:(innermost d) nest in
  Alcotest.(check int) "lag-2 chain needs 3 registers" 3
    (Unroll_space.Table.get reg (v [ 0; 0 ]));
  Alcotest.(check int) "independent copies double it" 6
    (Unroll_space.Table.get reg (v [ 1; 0 ]))

(* The properties below compare the tables the search reads with the
   materialised unrolled body, and the paper's incremental algorithms
   with those tables, on the same random separable-SIV nests. *)

let prop_streams_match_materialization =
  QCheck2.Test.make
    ~name:"tables: streams == materialised body (random SIV nests)" ~count:60
    ~print:print_case (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let summary = summary_cells nest space in
      everywhere space (fun u -> materialized_summary nest u = summary u))

let prop_groups_match_materialization =
  QCheck2.Test.make ~name:"tables: exact group counts == materialised body"
    ~count:60 ~print:print_case (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let exact = exact_counts nest space in
      everywhere space (fun u -> materialized_counts nest u = exact u))

let prop_incremental_matches_exact =
  QCheck2.Test.make ~name:"tables: incremental tables == exact counts" ~count:60
    ~print:print_case (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let localized = innermost (Nest.depth nest) in
      (* the incremental algorithm shares the paper's domain restriction:
         merge keys must be orientable (Sec. 5) *)
      QCheck2.assume
        (List.for_all
           (fun g -> Tables.gts_applicable space ~localized g)
           (Ugs.of_nest nest));
      let exact = exact_counts nest space in
      let incremental = incremental_counts nest space in
      everywhere space (fun u -> incremental u = exact u))

let prop_incremental_rrs_matches_streams =
  QCheck2.Test.make ~name:"tables: Figure-5 RRS table == stream count" ~count:60
    ~print:print_case (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let summary = summary_cells nest space in
      let inc =
        Rrs.incremental_rrs_table space ~localized:(innermost (Nest.depth nest)) nest
      in
      everywhere space (fun u ->
          Unroll_space.Table.get inc u = (summary u).Streams.streams))

(* The shipped builder ([Streams.add_unrolled]) against
   [Table_reference], per UGS and cell for cell: g_T, g_S, and the
   stream, V_M and R summaries. *)
let agrees_with_reference nest space =
  let localized = innermost (Nest.depth nest) in
  let get = Unroll_space.Table.get in
  List.for_all
    (fun g ->
      let t = Streams.create_tables space in
      let gts, gss = Streams.add_unrolled t ~localized g in
      let ref_gts = Table_reference.gts_exact_table space ~localized g in
      let ref_gss = Table_reference.gss_exact_table space ~localized g in
      let ref_summary = Table_reference.unrolled_summary_fn space ~localized g in
      everywhere space (fun u ->
          get gts u = get ref_gts u
          && get gss u = get ref_gss u
          && ref_summary u
             = { Streams.streams = get t.Streams.stream_table u;
                 memory_ops = get t.Streams.mem_table u;
                 registers = get t.Streams.reg_table u }))
    (Ugs.of_nest nest)

(* A 3-deep nest whose classes are no chain (copies coincide along the
   anti-diagonal of the (J,K) plane, for a varying (D) and an invariant
   (F) UGS); a 3-deep nest whose definitions split streams next to an
   invariant UGS (T); and a 2-deep nest with defs among uses of one
   array. *)
let reference_fixtures =
  List.map
    (fun text -> Parse.nest_exn ~name:"fixture" text)
    [ "DO J = 1, 24\n DO K = 1, 24\n  DO I = 1, 24\n\
       D(I,J+K) = D(I,J+K-1) + E(J+K,I) * E(J+K+1,I)\n\
       F(J+K) = F(J+K) + D(I-1,J+K) * W(I)\n  ENDDO\n ENDDO\nENDDO\n";
      "DO J = 1, 24\n DO K = 1, 24\n  DO I = 1, 24\n\
       C(I,J) = C(I,J) + A(I,K) * B(K,J)\n\
       A(I,K+1) = A(I,K) + C(I,J-1) * S(J)\n\
       T(K) = T(K) + B(K,J)\n  ENDDO\n ENDDO\nENDDO\n";
      "DO I = 1, 24\n DO J = 1, 24\n\
       A(I+1,J) = A(I,J) + A(I-1,J) * A(I+2,J)\n\
       B(I,J) = A(I,J) + B(I-1,J)\n ENDDO\nENDDO\n" ]

let prop_tables_match_reference =
  QCheck2.Test.make ~name:"tables: one partition per UGS == per-vector reference"
    ~count:60
    QCheck2.Gen.(
      triple (Gen.nest_and_space_gen ()) (int_bound 1_000_000)
        (oneofl reference_fixtures >>= fun nest -> map (fun s -> (nest, s)) (Gen.space_gen nest)))
    ~print:(fun (case, seed, fixture) ->
      Printf.sprintf "%s\nseed %d\nfixture %s" (print_case case) seed (print_case fixture))
    (fun ((nest, space), seed, (fixture, fixture_space)) ->
      (* Gen nests and a fixture on a random space (bounds 0-3, so some
         levels are not unrolled), and the generator's nests, 4-deep
         ones included, on their bound-3 space. *)
      let routine =
        Ujam_workload.Generator.routine ~deep:true (Random.State.make [| seed |]) seed
      in
      agrees_with_reference nest space
      && agrees_with_reference fixture fixture_space
      && List.for_all
           (fun nest ->
             let d = Nest.depth nest in
             let bounds = Array.init d (fun k -> if k = d - 1 then 0 else 3) in
             agrees_with_reference nest (Unroll_space.make ~bounds))
           routine.Ujam_workload.Generator.nests)

(* Closures larger than sqrt card, written cell by cell: the fixtures on
   their bound-8 space (the anti-diagonal classes of the first close to
   about half the (J,K) plane, and W(I)'s copies all coincide), and
   coupled J+K+L subscripts in a 4-deep nest at bound 4. *)
let test_large_closures_match_reference () =
  let deep =
    Parse.nest_exn ~name:"fixture"
      "DO L = 1, 12\n DO J = 1, 12\n  DO K = 1, 12\n   DO I = 1, 12\n\
       D(I,J+K+L) = D(I,J+K+L-1) + E(J+K+L,I) * W(I)\n\
       F(J+K+L) = F(J+K+L) + D(I-1,J+K+L)\n   ENDDO\n  ENDDO\n ENDDO\nENDDO\n"
  in
  let space nest bound =
    let d = Nest.depth nest in
    Unroll_space.make ~bounds:(Array.init d (fun k -> if k = d - 1 then 0 else bound))
  in
  List.iter
    (fun (nest, bound) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d-deep at bound %d" (Nest.depth nest) bound)
        true
        (agrees_with_reference nest (space nest bound)))
    ((deep, 4) :: List.map (fun nest -> (nest, 8)) reference_fixtures)

let suite =
  [ Alcotest.test_case "paper Figure 1 example" `Quick test_paper_example;
    Alcotest.test_case "kernel directions collapse" `Quick test_invariant_direction;
    Alcotest.test_case "suite: exact vs materialised" `Slow
      test_kernel_suite_exact_vs_materialized;
    Alcotest.test_case "suite: incremental vs exact" `Slow
      test_kernel_suite_incremental_vs_exact;
    Alcotest.test_case "RRS partition" `Quick test_rrs_partition;
    Alcotest.test_case "paper Figure 6 example" `Quick test_rrs_paper_figure6;
    Alcotest.test_case "register spans" `Quick test_register_table_spans;
    Gen.to_alcotest prop_streams_match_materialization;
    Gen.to_alcotest prop_groups_match_materialization;
    Gen.to_alcotest prop_incremental_matches_exact;
    Gen.to_alcotest prop_incremental_rrs_matches_streams;
    Alcotest.test_case "4-deep prepare vs materialised" `Slow
      test_deep_prepare_vs_materialized;
    Gen.to_alcotest prop_tables_match_reference;
    Alcotest.test_case "large closures vs reference" `Quick
      test_large_closures_match_reference ]

(* One group-spatial class over several group-temporal classes and
   components: A(I,J), A(I+1,J) and A(I+2,J+1) differ in the contiguous
   subscript, so they share cache lines wherever their second subscripts
   meet.  With the I loop not unrolled each is a temporal component of
   its own, but for A(I,J+1), which joins A(I,J)'s through the J
   unroll; unrolled, their copies merge into one component of several
   classes.  The invariant form (innermost K) and the varying form
   (innermost I, rows J and I) each run over every space with bounds 0
   and 2 on the outer levels, against the reference and the
   materialised body. *)
let test_spatial_over_temporal_components () =
  let nests =
    List.map
      (fun text -> Parse.nest_exn ~name:"fixture" text)
      [ "DO I = 1, 24\n DO J = 1, 24\n  DO K = 1, 24\n\
         B(K,J) = A(I,J) + A(I+1,J) * A(I+2,J+1) + A(I,J+1)\n  ENDDO\n ENDDO\nENDDO\n";
        "DO J = 1, 24\n DO K = 1, 24\n  DO I = 1, 24\n\
         A(J,I) = A(J+1,I) + A(J+2,I+1) * B(K,I)\n  ENDDO\n ENDDO\nENDDO\n" ]
  in
  List.iter
    (fun nest ->
      List.iter
        (fun bounds ->
          let space = Unroll_space.make ~bounds in
          let name = print_case (nest, space) in
          Alcotest.(check bool) (name ^ " vs reference") true (agrees_with_reference nest space);
          let exact = exact_counts nest space in
          Unroll_space.iter space (fun u ->
              Alcotest.(check (pair int int))
                (name ^ " at " ^ Vec.to_string u)
                (materialized_counts nest u) (exact u)))
        [ [| 0; 0; 0 |]; [| 2; 0; 0 |]; [| 0; 2; 0 |]; [| 2; 2; 0 |] ])
    nests

let suite =
  suite
  @ [ Alcotest.test_case "spatial classes over temporal components" `Quick
        test_spatial_over_temporal_components ]
