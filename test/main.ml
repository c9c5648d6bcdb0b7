(* Alcotest pads the group column to the longest group name and cuts long
   test names to fit 80 columns, so the longest group name decides how long
   test names print. Keep it at 16 characters ("serve bad config"). *)
let () =
  Alcotest.run "contention"
    [
      ("rational", Test_rational.suite);
      ("graph", Test_graph.suite);
      ("repetition", Test_repetition.suite);
      ("statespace", Test_statespace.suite);
      ("hsdf/mcm", Test_hsdf_mcm.suite);
      ("generator", Test_generator.suite);
      ("rng", Test_rng.suite);
      ("heap", Test_heap.suite);
      ("engine", Test_engine.suite);
      ("prob", Test_prob.suite);
      ("sympoly", Test_sympoly.suite);
      ("exact", Test_exact.suite);
      ("approx", Test_approx.suite);
      ("compose", Test_compose.suite);
      ("wcrt", Test_wcrt.suite);
      ("mapping", Test_mapping.suite);
      ("usecase", Test_usecase.suite);
      ("analysis", Test_analysis.suite);
      ("kernel", Test_kernel.suite);
      ("admission", Test_admission.suite);
      ("rational period", Test_rational_period.suite);
      ("calibration", Test_calibration.suite);
      ("scenario", Test_scenario.suite);
      ("sensitivity", Test_sensitivity.suite);
      ("persistence", Test_persistence.suite);
      ("static order", Test_static_order.suite);
      ("preemptive tdma", Test_preemptive.suite);
      ("replicate", Test_replicate.suite);
      ("capacity", Test_capacity.suite);
      ("tdma", Test_tdma.suite);
      ("arbitration", Test_arbitration.suite);
      ("dist", Test_dist.suite);
      ("stochastic", Test_stochastic.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("text", Test_text.suite);
      ("explore", Test_explore.suite);
      ("export", Test_export.suite);
      ("stats", Test_stats.suite);
      ("table/chart", Test_table_chart.suite);
      ("exp", Test_exp.suite);
      ("pool", Test_pool.suite);
      ("sweep parallel", Test_sweep_parallel.suite);
      ("properties", Test_properties.suite);
      ("golden", Test_golden.suite);
      ("integration", Test_integration.suite);
      ("serve json", Test_json.suite);
      ("serve", Test_serve.suite);
      ("serve bad config", Test_serve.bad_config_suite);
      ("wire golden", Test_wire_golden.suite);
      ("serve metrics", Test_serve_metrics.suite);
      ("obs", Test_obs.suite);
      ("dot", Test_dot.suite);
      ("figures", Test_figures.suite);
      ("lru", Test_lru.suite);
      ("check", Test_check.suite);
      ("cluster", Test_cluster.suite);
      ("tracing", Test_tracing.suite);
      ("explain", Test_explain.suite);
      ("margin", Test_margin.suite);
      ("churn", Test_churn.suite);
      ("audit", Test_audit.suite);
      ("cli", Test_cli.suite);
    ]
