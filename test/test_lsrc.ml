open Resa_core
open Resa_algos

let test_single_job () =
  let inst = Instance.of_sizes ~m:4 [ (3, 2) ] in
  let s = Lsrc.run inst in
  Alcotest.(check int) "starts immediately" 0 (Schedule.start s 0);
  Alcotest.(check int) "makespan" 3 (Schedule.makespan inst s)

let test_packs_greedily () =
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 1); (1, 4) ] in
  let s = Lsrc.run inst in
  Alcotest.(check int) "j0 at 0" 0 (Schedule.start s 0);
  Alcotest.(check int) "j1 fits alongside" 0 (Schedule.start s 1);
  Alcotest.(check int) "j2 after both" 2 (Schedule.start s 2);
  Alcotest.(check int) "makespan" 3 (Schedule.makespan inst s)

let test_skips_blocked_head () =
  (* A list algorithm starts later jobs when the next-in-list does not fit:
     the aggressive behaviour distinguishing LSRC from FCFS (paper §2.2). *)
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 2); (2, 1) ] in
  let s = Lsrc.run inst in
  Alcotest.(check int) "wide first" 0 (Schedule.start s 0);
  Alcotest.(check int) "q=2 cannot fit at 0" 2 (Schedule.start s 1);
  Alcotest.(check int) "q=1 jumps the queue" 0 (Schedule.start s 2)

let test_respects_reservation_window () =
  (* Job must not overlap a reservation anywhere in its window. *)
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (2, 2, 2) ] [ (3, 1) ] in
  let s = Lsrc.run inst in
  Alcotest.(check int) "waits for reservation to end" 4 (Schedule.start s 0)

let test_uses_gap_before_reservation () =
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (2, 2, 2) ] [ (2, 2); (1, 1) ] in
  let s = Lsrc.run inst in
  Alcotest.(check int) "fills the gap" 0 (Schedule.start s 0);
  Alcotest.(check int) "short job after first, still before reservation? no: at 4" 4
    (Schedule.start s 1)

let test_partial_availability () =
  (* Narrow reservation leaves room to run alongside. *)
  let inst = Instance.of_sizes ~m:3 ~reservations:[ (0, 4, 2) ] [ (4, 1); (1, 2) ] in
  let s = Lsrc.run inst in
  Alcotest.(check int) "narrow job alongside reservation" 0 (Schedule.start s 0);
  Alcotest.(check int) "wide job after" 4 (Schedule.start s 1)

let test_priority_changes_schedule () =
  let inst, _ = Resa_gen.Adversarial.graham_tight ~m:4 in
  let fifo = Schedule.makespan inst (Lsrc.run ~priority:Priority.Fifo inst) in
  let lpt = Schedule.makespan inst (Lsrc.run ~priority:Priority.Lpt inst) in
  Alcotest.(check int) "FIFO hits the bad case" 7 fifo;
  Alcotest.(check int) "LPT fixes this family" 4 lpt

(* Every offline entry point rejects an order that is not a permutation:
   a wrong length, a repeated index (which would leave a job unscheduled)
   and an out-of-range one. *)
let test_order_length_checked () =
  let inst = Instance.of_sizes ~m:2 [ (1, 1); (2, 1) ] in
  List.iter
    (fun (fn, run) ->
      List.iter
        (fun (what, order) ->
          Alcotest.check_raises (fn ^ ": " ^ what)
            (Invalid_argument (fn ^ ": order is not a permutation"))
            (fun () -> ignore (run inst order : Schedule.t)))
        [
          ("too short", [| 0 |]);
          ("too long", [| 0; 1; 0 |]);
          ("repeated index", [| 0; 0 |]);
          ("out of range", [| 0; 2 |]);
          ("negative", [| -1; 1 |]);
        ])
    [
      ("Lsrc.run_order", Lsrc.run_order);
      ("Fcfs.run_order", Fcfs.run_order);
      ("Backfill.conservative_order", Backfill.conservative_order);
      ("Backfill.easy_order", Backfill.easy_order);
    ]

let test_empty_instance () =
  let inst = Instance.of_sizes ~m:3 [] in
  let s = Lsrc.run inst in
  Alcotest.(check int) "empty makespan" 0 (Schedule.makespan inst s)

let test_is_greedy_detects_idling () =
  let inst = Instance.of_sizes ~m:2 [ (2, 1); (2, 1) ] in
  let greedy = Schedule.make [| 0; 0 |] in
  let lazy_s = Schedule.make [| 0; 5 |] in
  Alcotest.(check bool) "parallel is greedy" true (Lsrc.is_greedy inst greedy);
  Alcotest.(check bool) "delayed is not greedy" false (Lsrc.is_greedy inst lazy_s)

let test_decision_times () =
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (3, 1, 2) ] [ (2, 1) ] in
  let s = Lsrc.run inst in
  let times = Lsrc.decision_times inst s in
  Alcotest.(check bool) "starts with 0" true (List.mem 0 times);
  Alcotest.(check bool) "contains completion" true (List.mem 2 times)

(* --- properties --- *)

let prop_feasible =
  Tutil.qcheck ~count:200 "LSRC schedules are feasible" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      List.for_all
        (fun p -> Schedule.is_feasible inst (Lsrc.run ~priority:p inst))
        [ Priority.Fifo; Priority.Lpt; Priority.Random seed ])

let prop_greedy =
  Tutil.qcheck ~count:200 "LSRC schedules are greedy (list property)" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Lsrc.is_greedy inst (Lsrc.run inst))

let prop_graham_on_rigid =
  Tutil.qcheck ~count:150 "LSRC <= (2 - 1/m) * OPT without reservations (Thm 2)" Tutil.seed_arb
    (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      let lsrc = Schedule.makespan inst (Lsrc.run inst) in
      match Resa_exact.Bnb.optimal_makespan ~node_limit:300_000 inst with
      | None -> QCheck.assume_fail ()
      | Some opt ->
        float_of_int lsrc
        <= ((2.0 -. (1.0 /. float_of_int (Instance.m inst))) *. float_of_int opt) +. 1e-9)

let prop_work_conservation =
  Tutil.qcheck "all jobs scheduled exactly once" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let s = Lsrc.run inst in
      Array.for_all (fun st -> st >= 0) (Schedule.starts s))

let scale_instance c inst =
  (* Multiply every duration and reservation coordinate by [c] — the
     operation that turns the paper's fractional instances into the integer
     ones used here (DESIGN.md §1). *)
  let jobs =
    Array.to_list (Instance.jobs inst)
    |> List.map (fun j -> Job.make ~id:(Job.id j) ~p:(c * Job.p j) ~q:(Job.q j))
  in
  let reservations =
    Array.to_list (Instance.reservations inst)
    |> List.map (fun r ->
           Reservation.make ~id:(Reservation.id r)
             ~start:(c * Reservation.start r)
             ~p:(c * Reservation.p r) ~q:(Reservation.q r))
  in
  Instance.create_exn ~m:(Instance.m inst) ~jobs ~reservations

let prop_time_scaling_invariance =
  (* Justifies the integer-time model: scaling time by c scales every LSRC
     start (hence every ratio) exactly by c. *)
  Tutil.qcheck ~count:150 "LSRC commutes with time scaling" QCheck.(pair Tutil.seed_arb (int_range 2 7))
    (fun (seed, c) ->
      let inst = Tutil.small_resa_of_seed seed in
      let scaled = scale_instance c inst in
      let s = Lsrc.run inst and s' = Lsrc.run scaled in
      Array.for_all2 (fun a b -> c * a = b) (Schedule.starts s) (Schedule.starts s'))

let prop_scaling_other_algorithms =
  Tutil.qcheck ~count:100 "FCFS and backfilling commute with time scaling"
    QCheck.(pair Tutil.seed_arb (int_range 2 5))
    (fun (seed, c) ->
      let inst = Tutil.small_resa_of_seed seed in
      let scaled = scale_instance c inst in
      List.for_all
        (fun (run : Instance.t -> Schedule.t) ->
          Array.for_all2
            (fun a b -> c * a = b)
            (Schedule.starts (run inst))
            (Schedule.starts (run scaled)))
        [ (fun i -> Fcfs.run i); (fun i -> Backfill.conservative i); (fun i -> Backfill.easy i) ])

let prop_lsrc_never_beats_lower_bound =
  Tutil.qcheck "LSRC >= availability-aware lower bound" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Schedule.makespan inst (Lsrc.run inst) >= Resa_exact.Lower_bounds.best inst)

let suite =
  [
    Alcotest.test_case "single job at time 0" `Quick test_single_job;
    Alcotest.test_case "greedy packing" `Quick test_packs_greedily;
    Alcotest.test_case "jumps blocked list entries" `Quick test_skips_blocked_head;
    Alcotest.test_case "whole window avoids reservations" `Quick test_respects_reservation_window;
    Alcotest.test_case "fills gaps before reservations" `Quick test_uses_gap_before_reservation;
    Alcotest.test_case "runs alongside narrow reservations" `Quick test_partial_availability;
    Alcotest.test_case "priority rules change the outcome" `Quick test_priority_changes_schedule;
    Alcotest.test_case "order length is validated" `Quick test_order_length_checked;
    Alcotest.test_case "empty instance" `Quick test_empty_instance;
    Alcotest.test_case "is_greedy certificate" `Quick test_is_greedy_detects_idling;
    Alcotest.test_case "decision times exposed" `Quick test_decision_times;
    prop_feasible;
    prop_greedy;
    prop_graham_on_rigid;
    prop_work_conservation;
    prop_time_scaling_invariance;
    prop_scaling_other_algorithms;
    prop_lsrc_never_beats_lower_bound;
  ]
