let () =
  Alcotest.run "ppat"
    [
      ("exp", Test_exp.tests);
      ("access", Test_access.tests);
      ("pat", Test_pat.tests);
      ("levels", Test_levels.tests);
      ("mapping", Test_mapping.tests);
      ("search", Test_search.tests);
      ("cost-model", Test_cost_model.tests);
      ("interp", Test_interp.tests);
      ("timing", Test_timing.tests);
      ("cache", Test_cache.tests);
      ("device", Test_device.tests);
      ("lower", Test_lower.tests);
      ("cpu", Test_cpu.tests);
      ("host", Test_host.tests);
      ("validate-apps", Test_validate_apps.tests);
      ("integration", Test_integration.tests);
      ("kir", Test_kir.tests);
      ("runner", Test_runner.tests);
      ("profile", Test_profile.tests);
      ("codegen-opts", Test_codegen_opts.tests);
      ("engine", Test_engine.tests);
      ("attr", Test_attr.tests);
      ("parallel", Test_parallel.tests);
      ("properties", Test_props.tests);
      ("canon", Test_canon.tests);
      ("metrics-lru", Test_metrics_lru.tests);
      ("serve", Test_serve.tests);
      ("race", Test_race.tests);
      ("sweep", Test_sweep.tests);
      ("mapspace", Test_mapspace.tests);
      ("golden", Test_golden.tests);
    ]
