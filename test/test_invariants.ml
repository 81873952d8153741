(* Cross-cutting invariants of the analysis stack, checked on random
   separable-SIV nests. *)

open Ujam_linalg
open Ujam_ir
open Ujam_core

let innermost d = Subspace.span_dims ~dim:d [ d - 1 ]

let copies u = Vec.fold (fun acc x -> acc * (x + 1)) 1 u

(* The (g_T, g_S) tables of every UGS, as the search reads them. *)
let group_tables space ~localized nest =
  List.map
    (fun g ->
      ( Table_wrappers.gts_exact_table space ~localized g,
        Table_wrappers.gss_exact_table space ~localized g ))
    (Ujam_reuse.Ugs.of_nest nest)

let prop_group_counts_monotone =
  QCheck2.Test.make ~name:"invariant: group counts grow pointwise with u" ~count:60
    ~print:(fun (n, _) -> Gen.nest_print n)
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let tables = group_tables space ~localized nest in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          Unroll_space.iter space (fun v ->
              if Vec.leq_pointwise u v then
                List.iter
                  (fun (gt, gs) ->
                    let get = Unroll_space.Table.get in
                    if get gt u > get gt v || get gs u > get gs v then
                      ok := false)
                  tables));
      !ok)

let prop_gs_le_gt_after_unroll =
  QCheck2.Test.make ~name:"invariant: g_S <= g_T at every unroll vector" ~count:60
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let pairs = group_tables space ~localized nest in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          List.iter
            (fun (gt, gs) ->
              if Unroll_space.Table.get gs u > Unroll_space.Table.get gt u then
                ok := false)
            pairs);
      !ok)

let prop_memory_bounded =
  QCheck2.Test.make
    ~name:"invariant: V_M(u) <= V_M(0) * copies and <= sites * copies" ~count:60
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let _, mem, _ = Table_wrappers.summary_tables space ~localized nest in
      let v0 = Unroll_space.Table.get mem (Vec.zero d) in
      let sites = List.length (Site.of_nest nest) in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          let v = Unroll_space.Table.get mem u in
          if v > v0 * copies u || v > sites * copies u then ok := false);
      !ok)

let prop_registers_at_least_streams =
  QCheck2.Test.make ~name:"invariant: registers >= streams >= V_M" ~count:60
    (Gen.nest_and_space_gen ())
    (fun (nest, space) ->
      let d = Nest.depth nest in
      let localized = innermost d in
      let streams, mem, reg = Table_wrappers.summary_tables space ~localized nest in
      let ok = ref true in
      Unroll_space.iter space (fun u ->
          let s = Unroll_space.Table.get streams u in
          if
            Unroll_space.Table.get reg u < s
            || s < Unroll_space.Table.get mem u
          then ok := false);
      !ok)

let prop_unroll_composes =
  QCheck2.Test.make ~name:"invariant: unrolling composes multiplicatively" ~count:60
    ~print:Gen.nest_print (Gen.nest_gen ())
    (fun nest ->
      let d = Nest.depth nest in
      if d < 2 then true
      else begin
        let level = 0 in
        let u1 = Vec.set (Vec.zero d) level 1 in
        let u2 = Vec.set (Vec.zero d) level 2 in
        let both = Vec.set (Vec.zero d) level 5 in
        (* (1+1)*(2+1) = 6 copies either way, in the same order *)
        String.equal
          (Nest.to_string (Unroll.unroll_and_jam (Unroll.unroll_and_jam nest u1) u2))
          (Nest.to_string (Unroll.unroll_and_jam nest both))
      end)

let prop_safety_innermost_zero =
  QCheck2.Test.make ~name:"invariant: innermost never unrollable" ~count:60
    (Gen.nest_gen ()) (fun nest ->
      let g = Ujam_depend.Graph.build ~include_input:false nest in
      let b = Ujam_depend.Safety.max_safe_unroll g in
      b.(Array.length b - 1) = 0)

let prop_driver_never_worse =
  QCheck2.Test.make ~name:"invariant: driver never worsens the model objective"
    ~count:40 (Gen.nest_gen ~max_depth:2 ())
    (fun nest ->
      let r = Driver.optimize ~bound:3 ~machine:Ujam_machine.Presets.alpha nest in
      r.Driver.choice.Search.objective <= r.Driver.original.Search.objective +. 1e-12)

let prop_interp_deterministic =
  QCheck2.Test.make ~name:"invariant: interpreter is deterministic" ~count:40
    (Gen.nest_gen ()) (fun nest ->
      Ujam_sim.Interp.equal (Ujam_sim.Interp.run nest) (Ujam_sim.Interp.run nest))

let suite =
  [ Gen.to_alcotest prop_group_counts_monotone;
    Gen.to_alcotest prop_gs_le_gt_after_unroll;
    Gen.to_alcotest prop_memory_bounded;
    Gen.to_alcotest prop_registers_at_least_streams;
    Gen.to_alcotest prop_unroll_composes;
    Gen.to_alcotest prop_safety_innermost_zero;
    Gen.to_alcotest prop_driver_never_worse;
    Gen.to_alcotest prop_interp_deterministic ]
