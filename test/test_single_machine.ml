open Resa_core
open Resa_exact

let test_simple_sequence () =
  let inst = Instance.of_sizes ~m:1 [ (3, 1); (2, 1); (4, 1) ] in
  let sched, opt = Single_machine.solve inst in
  Alcotest.(check int) "sum of durations" 9 opt;
  Tutil.check_feasible "dp schedule" inst sched;
  Alcotest.(check int) "schedule achieves it" 9 (Schedule.makespan inst sched)

let test_threads_around_reservations () =
  (* Windows of length 3 and 4 separated by blocks; jobs 3,4 fit exactly in
     one order but not the other. *)
  let inst =
    Instance.of_sizes ~m:1 ~reservations:[ (3, 2, 1); (9, 2, 1) ] [ (4, 1); (3, 1) ]
  in
  let sched, opt = Single_machine.solve inst in
  Tutil.check_feasible "dp around reservations" inst sched;
  Alcotest.(check int) "3 before the gap, 4 after" 9 opt;
  Alcotest.(check int) "job 1 first" 0 (Schedule.start sched 1);
  Alcotest.(check int) "job 0 second" 5 (Schedule.start sched 0)

let test_matches_bnb () =
  let rng = Prng.create ~seed:61 in
  for _ = 1 to 25 do
    let n = Prng.int_incl rng ~lo:1 ~hi:6 in
    let jobs = List.init n (fun i -> Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:6) ~q:1) in
    let reservations =
      if Prng.bool rng then
        [ Reservation.make ~id:0 ~start:(Prng.int_incl rng ~lo:1 ~hi:8) ~p:(Prng.int_incl rng ~lo:1 ~hi:4) ~q:1 ]
      else []
    in
    let inst = Instance.create_exn ~m:1 ~jobs ~reservations in
    let dp = Single_machine.optimal_makespan inst in
    match Tutil.optimal_makespan inst with
    | Some bb -> Alcotest.(check int) "dp = b&b" bb dp
    | None -> Alcotest.fail "b&b inconclusive on a tiny instance"
  done

let test_fig1_reduction_optimum () =
  (* The DP certifies C* = k(B+1)-1 on a YES reduction instance (k = 5,
     n = 15 jobs — beyond the B&B's comfort zone). *)
  let rng = Prng.create ~seed:62 in
  let tp = Resa_gen.Threepartition.random_yes rng ~k:5 ~b:12 in
  let inst =
    Resa_analysis.Transform.of_three_partition ~xs:tp.Resa_gen.Threepartition.xs ~b:12 ~rho:2
  in
  Alcotest.(check int) "certified target"
    (Resa_analysis.Transform.three_partition_target ~k:5 ~b:12)
    (Single_machine.optimal_makespan inst)

let test_rejects_bad_inputs () =
  let wide = Instance.of_sizes ~m:2 [ (1, 2) ] in
  Alcotest.check_raises "m must be 1" (Invalid_argument "Single_machine.solve: requires m = 1")
    (fun () -> ignore (Single_machine.solve wide));
  let many =
    Instance.of_sizes ~m:1 (List.init (Single_machine.max_jobs + 1) (fun _ -> (1, 1)))
  in
  Alcotest.check_raises "size limit" (Invalid_argument "Single_machine.solve: too many jobs")
    (fun () -> ignore (Single_machine.solve many))

let test_empty () =
  let inst = Instance.of_sizes ~m:1 [] in
  Alcotest.(check int) "empty" 0 (Single_machine.optimal_makespan inst)

let prop_dp_bounded_by_heuristics =
  Tutil.qcheck ~count:100 "DP optimum between lower bound and LSRC" Tutil.seed_arb (fun seed ->
      let rng = Prng.create ~seed in
      let n = Prng.int_incl rng ~lo:1 ~hi:10 in
      let jobs = List.init n (fun i -> Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:7) ~q:1) in
      let reservations =
        List.filteri (fun i _ -> i < 2)
          (List.init 2 (fun i ->
               Reservation.make ~id:i ~start:(1 + (7 * i)) ~p:(Prng.int_incl rng ~lo:1 ~hi:3) ~q:1))
      in
      let inst = Instance.create_exn ~m:1 ~jobs ~reservations in
      let opt = Single_machine.optimal_makespan inst in
      Lower_bounds.best inst <= opt
      && opt <= Schedule.makespan inst (Resa_algos.Lsrc.run inst))

let suite =
  [
    Alcotest.test_case "sequencing without reservations" `Quick test_simple_sequence;
    Alcotest.test_case "threads jobs around reservations" `Quick test_threads_around_reservations;
    Alcotest.test_case "matches branch and bound" `Quick test_matches_bnb;
    Alcotest.test_case "certifies the FIG1 optimum at k=5" `Quick test_fig1_reduction_optimum;
    Alcotest.test_case "input validation" `Quick test_rejects_bad_inputs;
    Alcotest.test_case "empty instance" `Quick test_empty;
    prop_dp_bounded_by_heuristics;
  ]
