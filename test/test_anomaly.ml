open Resa_core
open Resa_analysis

let test_worst_order_finds_graham_trap () =
  (* On the Graham-tight family, FIFO is already the worst order (2 − 1/m);
     the search must find a makespan at least as bad as LPT's optimum and at
     most the known worst case. *)
  let m = 4 in
  let inst, opt = Resa_gen.Adversarial.graham_tight ~m in
  let rng = Prng.create ~seed:5 in
  let order, worst = Anomaly.worst_order rng inst in
  Alcotest.(check int) "finds the 2-1/m order" ((2 * m) - 1) worst;
  Alcotest.(check int) "order achieves it" worst
    (Schedule.makespan inst
       (Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.aggressive inst order));
  Alcotest.(check bool) "worse than optimum" true (worst > opt)

let test_worst_order_on_prop2 () =
  (* The search must reach the adversarial value (FIFO order) on the Prop 2
     instance. *)
  let inst, _ = Resa_gen.Adversarial.prop2 ~k:3 in
  let rng = Prng.create ~seed:6 in
  let _, worst = Anomaly.worst_order ~restarts:6 ~iterations:80 rng inst in
  Alcotest.(check int) "reaches the trap" (Resa_gen.Adversarial.prop2_expected_lsrc ~k:3) worst

let test_worst_order_empty () =
  let inst = Instance.of_sizes ~m:2 [] in
  let rng = Prng.create ~seed:7 in
  let order, worst = Anomaly.worst_order rng inst in
  Alcotest.(check int) "empty order" 0 (Array.length order);
  Alcotest.(check int) "zero makespan" 0 worst

let anomaly_instance =
  (* Found by random search (documented in the test so it stays honest):
     removing J3 makes FIFO LSRC slower (10 -> 11) even without
     reservations — a rigid-task Graham anomaly. *)
  Instance.of_sizes ~m:3 [ (4, 2); (5, 1); (1, 3); (3, 1); (2, 2); (5, 1) ]

let test_removal_anomaly_exists () =
  match Anomaly.find_removal_anomaly anomaly_instance with
  | None -> Alcotest.fail "known anomaly not found"
  | Some a ->
    Alcotest.(check int) "removing job 3" 3 a.removed;
    Alcotest.(check int) "full makespan" 10 a.with_job;
    Alcotest.(check int) "reduced makespan" 11 a.without_job;
    Alcotest.(check bool) "report verifies" true
      (Anomaly.check_removal_anomaly anomaly_instance a)

let test_removal_anomaly_none_on_chain () =
  (* A chain of full-width jobs is trivially monotone under removal. *)
  let inst = Instance.of_sizes ~m:2 [ (3, 2); (2, 2); (4, 2) ] in
  Alcotest.(check bool) "monotone" true (Anomaly.find_removal_anomaly inst = None)

let test_check_rejects_fabricated_report () =
  let fake = Anomaly.{ removed = 0; with_job = 1; without_job = 100 } in
  Alcotest.(check bool) "fabricated report rejected" false
    (Anomaly.check_removal_anomaly anomaly_instance fake)

let machine_anomaly_instance =
  (* m=3: J2 fills the third processor while J1 waits; with a fourth
     processor J0 and J1 run together and push J2 to time 2 (5 -> 7). *)
  Instance.of_sizes ~m:3 [ (2, 2); (3, 2); (5, 1) ]

let test_machine_anomaly_exists () =
  match Anomaly.find_machine_anomaly machine_anomaly_instance with
  | None -> Alcotest.fail "known machine anomaly not found"
  | Some a ->
    Alcotest.(check int) "3 machines" 5 a.cmax_small;
    Alcotest.(check int) "4 machines is worse" 7 a.cmax_large;
    Alcotest.(check bool) "report verifies" true
      (Anomaly.check_machine_anomaly machine_anomaly_instance a)

let test_machine_anomaly_rejects_reservations () =
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (0, 1, 1) ] [ (1, 1) ] in
  Alcotest.check_raises "reservation-free only"
    (Invalid_argument "Anomaly.find_machine_anomaly: reservation-free instances only") (fun () ->
      ignore (Anomaly.find_machine_anomaly inst))

let prop_machine_anomalies_verify =
  Tutil.qcheck ~count:100 "every reported machine anomaly verifies" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      match Anomaly.find_machine_anomaly inst with
      | None -> true
      | Some a -> Anomaly.check_machine_anomaly inst a)

let prop_optimum_is_machine_monotone =
  (* The anomaly is a property of greedy lists, never of the optimum. *)
  Tutil.qcheck ~count:60 "the exact optimum never increases with machines" Tutil.seed_arb
    (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      let larger =
        Instance.create_exn
          ~m:(Instance.m inst + 1)
          ~jobs:(Array.to_list (Instance.jobs inst))
          ~reservations:[]
      in
      match
        ( Tutil.optimal_makespan ~node_limit:200_000 inst,
          Tutil.optimal_makespan ~node_limit:200_000 larger )
      with
      | Some a, Some b -> b <= a
      | _ -> QCheck.assume_fail ())

let prop_worst_order_at_least_fifo =
  Tutil.qcheck ~count:60 "worst order >= every standard priority" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let rng = Prng.create ~seed in
      let _, worst = Anomaly.worst_order ~restarts:2 ~iterations:30 rng inst in
      List.for_all
        (fun p ->
          worst >= Schedule.makespan inst (Resa_algos.Lsrc.run ~priority:p inst)
          || (* the search is heuristic: it must at least match FIFO, which
                is its starting incumbent *)
          p <> Resa_algos.Priority.Fifo)
        [ Resa_algos.Priority.Fifo; Resa_algos.Priority.Lpt ])

let prop_reported_anomalies_verify =
  Tutil.qcheck ~count:100 "every reported removal anomaly verifies" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      match Anomaly.find_removal_anomaly inst with
      | None -> true
      | Some a -> Anomaly.check_removal_anomaly inst a)

let suite =
  [
    Alcotest.test_case "worst order on the Graham family" `Quick test_worst_order_finds_graham_trap;
    Alcotest.test_case "worst order on the Prop 2 family" `Quick test_worst_order_on_prop2;
    Alcotest.test_case "worst order on empty instance" `Quick test_worst_order_empty;
    Alcotest.test_case "a removal anomaly exists (rigid tasks)" `Quick test_removal_anomaly_exists;
    Alcotest.test_case "chains are monotone under removal" `Quick test_removal_anomaly_none_on_chain;
    Alcotest.test_case "fabricated reports rejected" `Quick test_check_rejects_fabricated_report;
    Alcotest.test_case "a machine-count anomaly exists" `Quick test_machine_anomaly_exists;
    Alcotest.test_case "machine anomaly needs no reservations" `Quick test_machine_anomaly_rejects_reservations;
    prop_machine_anomalies_verify;
    prop_optimum_is_machine_monotone;
    prop_worst_order_at_least_fifo;
    prop_reported_anomalies_verify;
  ]
