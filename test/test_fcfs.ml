open Resa_core
open Resa_algos

let test_head_blocks () =
  (* FCFS: the wide head blocks the narrow follower (no backfilling). *)
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 2); (2, 1) ] in
  let s = Fcfs.run inst in
  Alcotest.(check int) "j0 at 0" 0 (Schedule.start s 0);
  Alcotest.(check int) "j1 waits" 2 (Schedule.start s 1);
  Alcotest.(check int) "j2 does NOT jump (contrast with LSRC)" 2 (Schedule.start s 2)

let test_same_time_allowed () =
  let inst = Instance.of_sizes ~m:4 [ (2, 2); (2, 2) ] in
  let s = Fcfs.run inst in
  Alcotest.(check int) "both at 0" 0 (max (Schedule.start s 0) (Schedule.start s 1))

let test_reservation_respected () =
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (1, 3, 1) ] [ (2, 2) ] in
  let s = Fcfs.run inst in
  Alcotest.(check int) "waits for full width" 4 (Schedule.start s 0)

let test_ratio_m_family () =
  (* §2.2: FCFS has no constant guarantee; ratio approaches m. *)
  let m = 5 and len = 50 in
  let inst, opt = Resa_gen.Adversarial.fcfs_bad ~m ~len in
  let fcfs = Schedule.makespan inst (Fcfs.run inst) in
  Alcotest.(check int) "optimal known" (len + m) opt;
  Alcotest.(check int) "FCFS serialises everything" (m * (len + 1)) fcfs;
  let ratio = float_of_int fcfs /. float_of_int opt in
  Alcotest.(check bool) "ratio beyond 4" true (ratio > 4.0);
  (* LSRC on the same instance stays within its guarantee. *)
  let lsrc = Schedule.makespan inst (Lsrc.run inst) in
  Alcotest.(check bool) "LSRC below 2x opt" true
    (float_of_int lsrc <= 2.0 *. float_of_int opt)

let test_respects_order_certificate () =
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 2); (2, 1) ] in
  let order = Priority.order Priority.Fifo inst in
  let s = Fcfs.run inst in
  Alcotest.(check bool) "FCFS respects order" true (Fcfs.respects_order s order);
  let lsrc = Lsrc.run inst in
  Alcotest.(check bool) "LSRC violates FCFS order here" false
    (Fcfs.respects_order lsrc order)

let prop_feasible =
  Tutil.qcheck ~count:200 "FCFS schedules are feasible" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Schedule.is_feasible inst (Fcfs.run inst))

let prop_monotone_starts =
  Tutil.qcheck "starts non-decreasing along queue" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let order = Priority.order Priority.Fifo inst in
      Fcfs.respects_order (Fcfs.run inst) order)

let prop_never_better_than_lsrc_is_false_but_bounded =
  (* FCFS may beat LSRC on some orders or lose badly, but never beats the
     exact lower bound. *)
  Tutil.qcheck "FCFS >= lower bound" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Schedule.makespan inst (Fcfs.run inst) >= Resa_exact.Lower_bounds.best inst)

let suite =
  [
    Alcotest.test_case "head blocks followers" `Quick test_head_blocks;
    Alcotest.test_case "simultaneous starts allowed" `Quick test_same_time_allowed;
    Alcotest.test_case "reservations respected" `Quick test_reservation_respected;
    Alcotest.test_case "ratio-m adversarial family" `Quick test_ratio_m_family;
    Alcotest.test_case "order certificate" `Quick test_respects_order_certificate;
    prop_feasible;
    prop_monotone_starts;
    prop_never_better_than_lsrc_is_false_but_bounded;
  ]
