let () =
  Alcotest.run "ujam"
    [ ("linalg/rat", Test_rat.suite);
      ("linalg/vec", Test_vec.suite);
      ("linalg/mat", Test_mat.suite);
      ("linalg/subspace", Test_subspace.suite);
      ("ir/core", Test_ir.suite);
      ("ir/unroll", Test_unroll.suite);
      ("ir/parse", Test_parse.suite);
      ("ir/canon", Test_canon.suite);
      ("ir/interchange", Test_interchange.suite);
      ("ir/tile", Test_tile.suite);
      ("ir/transform", Test_transform.suite);
      ("depend", Test_depend.suite);
      ("depend/safety", Test_safety.suite);
      ("reuse", Test_reuse.suite);
      ("core/unroll-space", Test_unroll_space.suite);
      ("core/tables", Test_tables.suite);
      ("core/balance-search", Test_balance.suite);
      ("core/scalar-replace", Test_scalar_replace.suite);
      ("core/driver-models", Test_driver.suite);
      ("sim", Test_sim.suite);
      ("pipeline", Test_pipeline.suite);
      ("kernels", Test_kernels.suite);
      ("workload", Test_workload.suite);
      ("engine", Test_engine.suite);
      ("analysis", Test_analysis.suite);
      ("obs", Test_obs.suite);
      ("oracle", Test_oracle.suite);
      ("native", Test_native.suite);
      ("serve", Test_serve.suite);
      ("invariants", Test_invariants.suite) ]
