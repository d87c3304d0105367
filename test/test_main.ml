(* Test runner: every suite of the repository. *)

let () =
  Alcotest.run "resa"
    [
      ("prng", Test_prng.suite);
      ("profile", Test_profile.suite);
      ("timeline", Test_timeline.suite);
      ("sweep", Test_sweep.suite);
      ("core-types", Test_core_types.suite);
      ("priority", Test_priority.suite);
      ("lsrc", Test_lsrc.suite);
      ("fcfs", Test_fcfs.suite);
      ("backfill", Test_backfill.suite);
      ("shelf", Test_shelf.suite);
      ("online", Test_online.suite);
      ("preemptive", Test_preemptive.suite);
      ("exact", Test_exact.suite);
      ("bnb-diff", Test_bnb_diff.suite);
      ("single-machine", Test_single_machine.suite);
      ("graham", Test_graham.suite);
      ("ratio-bounds", Test_ratio_bounds.suite);
      ("transform", Test_transform.suite);
      ("anomaly", Test_anomaly.suite);
      ("generators", Test_gen.suite);
      ("eventq", Test_eventq.suite);
      ("simulator", Test_sim.suite);
      ("policy-diff", Test_policy_diff.suite);
      ("swf", Test_swf.suite);
      ("stream", Test_stream.suite);
      ("stats", Test_stats.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("jsonu", Test_jsonu.suite);
      ("metrics", Test_metrics.suite);
      ("alloc", Test_alloc.suite);
      ("instance-io", Test_io.suite);
    ]
