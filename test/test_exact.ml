(* Lower bounds and the branch-and-bound exact solver. *)

open Resa_core
open Resa_exact

(* The area walk with no hole and no cap. *)
let min_time_with_area tl ~from ~area =
  Lower_bounds.min_time_with_area tl ~from ~until:from ~less:0 ~area ~cap:max_int

let test_min_time_with_area () =
  let p = Timeline.of_profile (Profile.of_steps [ (0, 2); (3, 0); (5, 4) ]) in
  Alcotest.(check int) "zero area" 0 (min_time_with_area p ~from:0 ~area:0);
  Alcotest.(check int) "inside first segment" 2 (min_time_with_area p ~from:0 ~area:4);
  Alcotest.(check int) "stalls through the hole" 6 (min_time_with_area p ~from:0 ~area:10);
  Alcotest.(check int) "rounds up" 6 (min_time_with_area p ~from:0 ~area:7);
  Alcotest.(check int) "from offset" 7 (min_time_with_area p ~from:5 ~area:8);
  (* One processor taken on [0, 3): 1, 1, 1, 0, 0, 4, ... *)
  Alcotest.(check int) "through a hole" 6
    (Lower_bounds.min_time_with_area p ~from:0 ~until:3 ~less:1 ~area:6 ~cap:max_int);
  Alcotest.(check int) "capped" 5
    (Lower_bounds.min_time_with_area p ~from:0 ~until:3 ~less:1 ~area:6 ~cap:5)

let test_min_time_with_area_rejects_dead_tail () =
  (* A non-positive tail can never accumulate more area; the guard must fire
     even when [from] is already past the last breakpoint — that case used
     to fall through to a fabricated rate of 1. *)
  let dead = Timeline.of_profile (Profile.of_steps [ (0, 3); (5, 0) ]) in
  let expect = Invalid_argument "Lower_bounds.min_time_with_area: non-positive tail" in
  Alcotest.check_raises "from before tail" expect (fun () ->
      ignore (min_time_with_area dead ~from:0 ~area:100));
  Alcotest.check_raises "from past last breakpoint" expect (fun () ->
      ignore (min_time_with_area dead ~from:9 ~area:3));
  (* area = 0 needs nothing, so even a dead tail answers immediately. *)
  Alcotest.(check int) "zero area unaffected" 9
    (min_time_with_area dead ~from:9 ~area:0)

let test_work_bound_no_reservations () =
  let inst = Instance.of_sizes ~m:4 [ (3, 2); (2, 4) ] in
  (* W = 14, m = 4 -> ceil(14/4) = 4. *)
  Alcotest.(check int) "ceil(W/m)" 4 (Lower_bounds.work_bound inst)

let test_work_bound_with_reservations () =
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (0, 3, 2) ] [ (2, 2) ] in
  (* Machine fully blocked during [0,3): area accumulates only after. *)
  Alcotest.(check int) "waits out the blackout" 5 (Lower_bounds.work_bound inst)

let test_fit_bound () =
  let inst = Instance.of_sizes ~m:3 ~reservations:[ (1, 4, 2) ] [ (2, 2) ] in
  (* q=2 does not fit alongside the reservation: starts at 5, ends at 7. *)
  Alcotest.(check int) "earliest window end" 7 (Lower_bounds.fit_bound inst);
  let free = Instance.of_sizes ~m:3 [ (2, 2) ] in
  Alcotest.(check int) "pmax without reservations" 2 (Lower_bounds.fit_bound free)

let test_serial_bound () =
  (* Three jobs wider than m/2 must be sequential. *)
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (3, 3); (1, 3); (1, 1) ] in
  Alcotest.(check int) "sum of wide durations" 6 (Lower_bounds.serial_bound inst);
  (* Work bound alone would be weaker: W = 22, ceil(22/4) = 6 — equal here,
     so tighten with a narrower machine. *)
  let inst2 = Instance.of_sizes ~m:10 [ (4, 6); (4, 6) ] in
  Alcotest.(check int) "serial beats area" 8 (Lower_bounds.serial_bound inst2);
  Alcotest.(check int) "area weaker" 5 (Lower_bounds.work_bound inst2)

let test_bnb_simple_exact () =
  (* PARTITION-style: optimum needs a clever split. m=2, sequential jobs. *)
  let inst = Instance.of_sizes ~m:2 [ (3, 1); (3, 1); (2, 1); (2, 1); (2, 1) ] in
  let r = Bnb.solve inst in
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check int) "balanced split" 6 r.makespan;
  Tutil.check_feasible "bnb schedule" inst r.schedule;
  Alcotest.(check int) "schedule achieves it" 6 (Schedule.makespan inst r.schedule)

let test_bnb_beats_greedy () =
  (* LSRC FIFO is suboptimal on the Graham-tight family; B&B must find m. *)
  let inst, opt = Resa_gen.Adversarial.graham_tight ~m:3 in
  let r = Bnb.solve inst in
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check int) "true optimum" opt r.makespan

let test_bnb_with_reservations () =
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (2, 3, 2) ] [ (2, 2); (2, 1); (3, 1) ] in
  let r = Bnb.solve inst in
  Alcotest.(check bool) "optimal" true r.optimal;
  Tutil.check_feasible "bnb with reservations" inst r.schedule;
  (* Hand check: j0 (2,2) at 0; j1+j2 can share after the reservation, or j2
     before it... optimal is 8: verify against brute expectations. *)
  Alcotest.(check int) "value" 8 r.makespan

let test_bnb_empty () =
  let inst = Instance.of_sizes ~m:3 [] in
  let r = Bnb.solve inst in
  Alcotest.(check int) "empty" 0 r.makespan;
  Alcotest.(check bool) "optimal" true r.optimal

let test_bnb_node_limit () =
  (* A tiny node budget must still return a feasible (heuristic) result. *)
  let rng = Prng.create ~seed:99 in
  let inst =
    Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n:12 ~alpha:0.5 ~pmax:9 ()
  in
  let r = Bnb.solve ~node_limit:10 inst in
  Tutil.check_feasible "budgeted result feasible" inst r.schedule;
  Alcotest.(check bool) "upper bound only" true (r.makespan >= Lower_bounds.best inst)

let prop_bnb_at_most_heuristics =
  Tutil.qcheck ~count:120 "optimum <= every heuristic" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let r = Bnb.solve ~node_limit:400_000 inst in
      (not r.optimal)
      || List.for_all
           (fun s -> r.makespan <= Schedule.makespan inst s)
           [
             Resa_algos.Lsrc.run inst;
             Resa_algos.Fcfs.run inst;
             Resa_algos.Backfill.conservative inst;
             Resa_algos.Backfill.easy inst;
             Resa_algos.Shelf.run Resa_algos.Shelf.Nfdh inst;
           ])

let prop_bnb_at_least_lower_bounds =
  Tutil.qcheck ~count:120 "optimum >= every lower bound" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let r = Bnb.solve ~node_limit:400_000 inst in
      (not r.optimal) || r.makespan >= Lower_bounds.best inst)

let prop_bnb_schedule_achieves_value =
  Tutil.qcheck ~count:120 "returned schedule achieves the reported makespan" Tutil.seed_arb
    (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let r = Bnb.solve ~node_limit:400_000 inst in
      Schedule.is_feasible inst r.schedule
      && Schedule.makespan inst r.schedule = r.makespan)

let prop_bnb_matches_brute_force =
  (* Exhaustive enumeration of every start vector on tiny instances: the
     strongest possible check of the left-shift dominance rule. *)
  Tutil.qcheck ~count:60 "B&B equals brute force on tiny instances" Tutil.seed_arb (fun seed ->
      let rng = Prng.create ~seed in
      let m = Prng.int_incl rng ~lo:1 ~hi:3 in
      let n = Prng.int_incl rng ~lo:1 ~hi:3 in
      let jobs =
        List.init n (fun i ->
            Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:4) ~q:(Prng.int_incl rng ~lo:1 ~hi:m))
      in
      let reservations =
        if Prng.bool rng then
          [
            Reservation.make ~id:0 ~start:(Prng.int_incl rng ~lo:0 ~hi:4)
              ~p:(Prng.int_incl rng ~lo:1 ~hi:3) ~q:(Prng.int_incl rng ~lo:1 ~hi:m);
          ]
        else []
      in
      let inst = Instance.create_exn ~m ~jobs ~reservations in
      let h = Instance.horizon inst + List.fold_left (fun a j -> a + Job.p j) 0 jobs + 1 in
      let best = ref max_int in
      let starts = Array.make n 0 in
      let rec enum i =
        if i = n then begin
          let s = Schedule.make starts in
          if Schedule.is_feasible inst s then best := min !best (Schedule.makespan inst s)
        end
        else
          for t = 0 to h do
            starts.(i) <- t;
            enum (i + 1)
          done
      in
      enum 0;
      (Bnb.solve inst).makespan = !best)

let prop_packed_instances_confirmed =
  (* On known-optimum packed instances small enough for B&B, the solver
     must reproduce the constructed optimum. *)
  Tutil.qcheck ~count:40 "B&B confirms packed optima" Tutil.seed_arb (fun seed ->
      let rng = Prng.create ~seed in
      let packed = Resa_gen.Packed.generate rng ~m:3 ~c:6 ~target_jobs:6 () in
      match Tutil.optimal_makespan ~node_limit:400_000 packed.instance with
      | None -> QCheck.assume_fail ()
      | Some opt -> opt = packed.optimal)

let suite =
  [
    Alcotest.test_case "min_time_with_area" `Quick test_min_time_with_area;
    Alcotest.test_case "min_time_with_area rejects dead tail" `Quick
      test_min_time_with_area_rejects_dead_tail;
    Alcotest.test_case "work bound = ceil(W/m)" `Quick test_work_bound_no_reservations;
    Alcotest.test_case "work bound skips blackout" `Quick test_work_bound_with_reservations;
    Alcotest.test_case "fit bound (pmax generalised)" `Quick test_fit_bound;
    Alcotest.test_case "serial bound for wide jobs" `Quick test_serial_bound;
    Alcotest.test_case "B&B solves a partition" `Quick test_bnb_simple_exact;
    Alcotest.test_case "B&B beats the greedy" `Quick test_bnb_beats_greedy;
    Alcotest.test_case "B&B with reservations" `Quick test_bnb_with_reservations;
    Alcotest.test_case "B&B on empty instance" `Quick test_bnb_empty;
    Alcotest.test_case "node budget degrades gracefully" `Quick test_bnb_node_limit;
    prop_bnb_at_most_heuristics;
    prop_bnb_at_least_lower_bounds;
    prop_bnb_schedule_achieves_value;
    prop_bnb_matches_brute_force;
    prop_packed_instances_confirmed;
  ]
