(* Job, Reservation, Instance, Schedule, Gantt unit tests. *)

open Resa_core

let test_job_make () =
  let j = Job.make ~id:3 ~p:5 ~q:2 in
  Alcotest.(check int) "id" 3 (Job.id j);
  Alcotest.(check int) "p" 5 (Job.p j);
  Alcotest.(check int) "q" 2 (Job.q j);
  Alcotest.(check int) "area" 10 (Job.area j)

let test_job_rejects () =
  Alcotest.check_raises "p=0" (Invalid_argument "Job.make: p must be >= 1") (fun () ->
      ignore (Job.make ~id:0 ~p:0 ~q:1));
  Alcotest.check_raises "q=0" (Invalid_argument "Job.make: q must be >= 1") (fun () ->
      ignore (Job.make ~id:0 ~p:1 ~q:0))

let test_reservation_basics () =
  let r = Reservation.make ~id:1 ~start:4 ~p:3 ~q:2 in
  Alcotest.(check int) "start" 4 (Reservation.start r);
  Alcotest.(check int) "stop" 7 (Reservation.stop r)

let test_reservation_rejects () =
  Alcotest.check_raises "negative start"
    (Invalid_argument "Reservation.make: start must be >= 0") (fun () ->
      ignore (Reservation.make ~id:0 ~start:(-1) ~p:1 ~q:1))

let test_instance_create_checks () =
  let j = Job.make ~id:0 ~p:1 ~q:5 in
  (match Instance.create ~m:3 ~jobs:[ j ] ~reservations:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "job wider than machine accepted");
  let r1 = Reservation.make ~id:0 ~start:0 ~p:5 ~q:2 in
  let r2 = Reservation.make ~id:1 ~start:2 ~p:5 ~q:2 in
  (match Instance.create ~m:3 ~jobs:[] ~reservations:[ r1; r2 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlapping reservations exceeding m accepted");
  match
    Instance.create ~m:3
      ~jobs:[ Job.make ~id:0 ~p:1 ~q:1; Job.make ~id:0 ~p:2 ~q:1 ]
      ~reservations:[]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate job ids accepted"

let test_instance_unavailability () =
  let inst =
    Instance.of_sizes ~m:10 ~reservations:[ (2, 4, 3); (4, 4, 5) ] [ (1, 1) ]
  in
  let u = Instance.unavailability inst in
  Alcotest.(check int) "before" 0 (Profile.value_at u 0);
  Alcotest.(check int) "first only" 3 (Profile.value_at u 3);
  Alcotest.(check int) "overlap" 8 (Profile.value_at u 5);
  Alcotest.(check int) "second only" 5 (Profile.value_at u 7);
  Alcotest.(check int) "after" 0 (Profile.value_at u 9);
  Alcotest.(check int) "umax" 8 (Instance.umax inst);
  Alcotest.(check int) "horizon" 8 (Instance.horizon inst);
  let a = Instance.availability inst in
  Alcotest.(check int) "availability complement" 2 (Profile.value_at a 5);
  (* Availability sits on every scheduler hot path; it is computed once at
     construction, not rebuilt per call. *)
  Alcotest.(check bool) "availability is cached" true (a == Instance.availability inst)

let test_instance_aggregates () =
  let inst = Instance.of_sizes ~m:4 [ (3, 2); (5, 1); (2, 4) ] in
  Alcotest.(check int) "total work" ((3 * 2) + 5 + (2 * 4)) (Instance.total_work inst);
  Alcotest.(check int) "pmax" 5 (Instance.pmax inst);
  Alcotest.(check int) "qmax" 4 (Instance.qmax inst)

let test_alpha_restriction () =
  let inst = Instance.of_sizes ~m:10 ~reservations:[ (0, 5, 4) ] [ (2, 3) ] in
  Alcotest.(check bool) "alpha .5 ok" true (Instance.is_alpha_restricted inst ~alpha:0.5);
  Alcotest.(check bool) "alpha .7 fails on reservations" false
    (Instance.is_alpha_restricted inst ~alpha:0.7);
  Alcotest.(check bool) "alpha .2 fails on jobs" false
    (Instance.is_alpha_restricted inst ~alpha:0.2);
  match Instance.alpha_interval inst with
  | None -> Alcotest.fail "interval expected"
  | Some (lo, hi) ->
    Alcotest.(check (float 1e-9)) "lo" 0.3 lo;
    Alcotest.(check (float 1e-9)) "hi" 0.6 hi

let test_alpha_interval_empty () =
  (* Wide job + wide reservation: no alpha fits. *)
  let inst = Instance.of_sizes ~m:10 ~reservations:[ (0, 5, 6) ] [ (2, 6) ] in
  Alcotest.(check bool) "empty interval" true (Instance.alpha_interval inst = None)

let test_schedule_feasible () =
  let inst = Instance.of_sizes ~m:3 [ (2, 2); (2, 1); (1, 3) ] in
  let s = Schedule.make [| 0; 0; 2 |] in
  Tutil.check_feasible "valid packing" inst s;
  Alcotest.(check int) "makespan" 3 (Schedule.makespan inst s);
  Alcotest.(check int) "completion of job 2" 3 (Schedule.completion inst s 2)

let test_schedule_overload_detected () =
  let inst = Instance.of_sizes ~m:3 [ (2, 2); (2, 2) ] in
  match Schedule.validate inst (Schedule.make [| 0; 1 |]) with
  | Error (Schedule.Overload { time = 1; used = 4; capacity = 3 }) -> ()
  | Error v -> Alcotest.failf "wrong violation: %a" Schedule.pp_violation v
  | Ok () -> Alcotest.fail "overload accepted"

let test_schedule_reservation_conflict () =
  let inst = Instance.of_sizes ~m:3 ~reservations:[ (1, 2, 2) ] [ (3, 2) ] in
  match Schedule.validate inst (Schedule.make [| 0 |]) with
  | Error (Schedule.Overload _) -> ()
  | Error v -> Alcotest.failf "wrong violation: %a" Schedule.pp_violation v
  | Ok () -> Alcotest.fail "reservation conflict accepted"

let test_schedule_negative_and_length () =
  let inst = Instance.of_sizes ~m:2 [ (1, 1) ] in
  (match Schedule.validate inst (Schedule.make [| -1 |]) with
  | Error (Schedule.Negative_start _) -> ()
  | _ -> Alcotest.fail "negative start accepted");
  match Schedule.validate inst (Schedule.make [| 0; 0 |]) with
  | Error (Schedule.Length_mismatch _) -> ()
  | _ -> Alcotest.fail "length mismatch accepted"

let test_schedule_utilization () =
  (* Perfect packing: utilization 1. *)
  let inst = Instance.of_sizes ~m:2 [ (3, 2) ] in
  let s = Schedule.make [| 0 |] in
  Alcotest.(check (float 1e-9)) "full" 1.0 (Schedule.utilization inst s);
  (* Half the available area idle. *)
  let inst2 = Instance.of_sizes ~m:2 [ (3, 1) ] in
  let s2 = Schedule.make [| 0 |] in
  Alcotest.(check (float 1e-9)) "half" 0.5 (Schedule.utilization inst2 s2)

let test_usage_profile () =
  let inst = Instance.of_sizes ~m:5 [ (4, 2); (2, 3) ] in
  let s = Schedule.make [| 0; 1 |] in
  let r = Schedule.usage inst s in
  Alcotest.(check int) "t=0" 2 (Profile.value_at r 0);
  Alcotest.(check int) "t=1" 5 (Profile.value_at r 1);
  Alcotest.(check int) "t=3" 2 (Profile.value_at r 3);
  Alcotest.(check int) "t=4" 0 (Profile.value_at r 4)

let test_gantt_renders () =
  let inst = Instance.of_sizes ~m:3 ~reservations:[ (1, 2, 1) ] [ (2, 2); (3, 1) ] in
  let s = Resa_algos.Lsrc.run inst in
  let out = Gantt.render inst s in
  Alcotest.(check bool) "mentions reservations" true (String.contains out '#');
  Alcotest.(check bool) "mentions job a" true (String.contains out 'a');
  Alcotest.(check bool) "mentions job b" true (String.contains out 'b');
  (* One line per processor plus header. *)
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "3 rows + header" 4 (List.length lines)

let test_gantt_assign_processors () =
  let inst = Instance.of_sizes ~m:4 [ (2, 2); (2, 2); (1, 4) ] in
  let s = Schedule.make [| 0; 0; 2 |] in
  let assignment = Gantt.assign_processors inst s in
  (* Jobs 0 and 1 run together: disjoint processors covering 0..3. *)
  let all = Array.concat [ assignment.(0); assignment.(1) ] in
  Array.sort Int.compare all;
  Alcotest.(check (array int)) "disjoint cover" [| 0; 1; 2; 3 |] all;
  Alcotest.(check int) "wide job gets all" 4 (Array.length assignment.(2))

let test_gantt_profile_render () =
  let p = Profile.of_steps [ (0, 3); (4, 1) ] in
  let out = Gantt.render_profile p ~hi:8 in
  Alcotest.(check bool) "non-empty" true (String.length out > 0);
  Alcotest.(check bool) "has bars" true (String.contains out '*')

(* --- properties --- *)

let prop_usage_integral_is_work =
  Tutil.qcheck "usage integral equals total work" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      let s = Resa_algos.Lsrc.run inst in
      let cmax = Schedule.makespan inst s in
      cmax = 0
      || Profile.integral_on (Schedule.usage inst s) ~lo:0 ~hi:cmax = Instance.total_work inst)

let prop_validate_accepts_lsrc =
  Tutil.qcheck "validate accepts LSRC output on reserved instances" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Schedule.is_feasible inst (Resa_algos.Lsrc.run inst))

let prop_gantt_total_cells =
  Tutil.qcheck ~count:50 "gantt assignment sizes match q" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let s = Resa_algos.Lsrc.run inst in
      let assignment = Gantt.assign_processors inst s in
      Array.for_all
        (fun i -> Array.length assignment.(i) = Job.q (Instance.job inst i))
        (Array.init (Instance.n_jobs inst) (fun i -> i)))

let suite =
  [
    Alcotest.test_case "job constructor and area" `Quick test_job_make;
    Alcotest.test_case "job rejects bad data" `Quick test_job_rejects;
    Alcotest.test_case "reservation intervals" `Quick test_reservation_basics;
    Alcotest.test_case "reservation rejects bad data" `Quick test_reservation_rejects;
    Alcotest.test_case "instance validation" `Quick test_instance_create_checks;
    Alcotest.test_case "unavailability profile" `Quick test_instance_unavailability;
    Alcotest.test_case "work/pmax/qmax" `Quick test_instance_aggregates;
    Alcotest.test_case "alpha restriction checks" `Quick test_alpha_restriction;
    Alcotest.test_case "alpha interval can be empty" `Quick test_alpha_interval_empty;
    Alcotest.test_case "feasible schedule accepted" `Quick test_schedule_feasible;
    Alcotest.test_case "overload detected with time" `Quick test_schedule_overload_detected;
    Alcotest.test_case "reservation conflicts detected" `Quick test_schedule_reservation_conflict;
    Alcotest.test_case "negative start / length mismatch" `Quick test_schedule_negative_and_length;
    Alcotest.test_case "utilization and idle area" `Quick test_schedule_utilization;
    Alcotest.test_case "usage profile r(t)" `Quick test_usage_profile;
    Alcotest.test_case "gantt renders jobs and reservations" `Quick test_gantt_renders;
    Alcotest.test_case "gantt processor assignment" `Quick test_gantt_assign_processors;
    Alcotest.test_case "profile bar rendering" `Quick test_gantt_profile_render;
    prop_usage_integral_is_work;
    prop_validate_accepts_lsrc;
    prop_gantt_total_cells;
  ]
