open Resa_core
open Resa_algos

let test_conservative_backfills () =
  (* j2 (narrow, short) slides into the hole in front of j1 without delaying
     it: conservative backfilling's defining move. *)
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 4); (2, 1) ] in
  let s = Backfill.conservative inst in
  Alcotest.(check int) "j0 at 0" 0 (Schedule.start s 0);
  Alcotest.(check int) "j1 planned at 2" 2 (Schedule.start s 1);
  Alcotest.(check int) "j2 backfilled at 0" 0 (Schedule.start s 2)

let test_conservative_never_delays () =
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 4); (2, 1); (5, 2); (1, 1) ] in
  let order = Priority.order Priority.Fifo inst in
  let s = Backfill.conservative inst in
  Alcotest.(check bool) "certificate holds" true (Backfill.no_earlier_job_delayed inst order s)

let test_easy_backfills_safely () =
  (* EASY: j2 may run ahead only when the head's guarantee is kept. *)
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 4); (2, 1) ] in
  let s = Backfill.easy inst in
  Alcotest.(check int) "head j1 guaranteed at 2" 2 (Schedule.start s 1);
  Alcotest.(check int) "j2 backfilled" 0 (Schedule.start s 2)

let test_easy_blocks_harmful_backfill () =
  (* A backfill candidate that would push the head must wait. m=4:
     j0 (p=2,q=3) runs first; head j1 (p=2,q=4) guaranteed at 2;
     j2 (p=3,q=1) fits at 0 but would end at 3 > 2, pushing the head. *)
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 4); (3, 1) ] in
  let s = Backfill.easy inst in
  Alcotest.(check int) "head stays at 2" 2 (Schedule.start s 1);
  Alcotest.(check bool) "j2 not backfilled at 0" true (Schedule.start s 2 > 0)

let test_conservative_allows_what_easy_blocks () =
  (* Same instance: conservative also refuses (it would delay j1). *)
  let inst = Instance.of_sizes ~m:4 [ (2, 3); (2, 4); (3, 1) ] in
  let s = Backfill.conservative inst in
  Alcotest.(check int) "conservative places j2 after head" 4 (Schedule.start s 2)

let test_backfill_around_reservation () =
  let inst = Instance.of_sizes ~m:4 ~reservations:[ (2, 2, 4) ] [ (2, 2); (6, 2); (1, 1) ] in
  let s = Backfill.conservative inst in
  Tutil.check_feasible "conservative around reservation" inst s;
  Alcotest.(check int) "j0 before the reservation" 0 (Schedule.start s 0);
  Alcotest.(check int) "j1 after it" 4 (Schedule.start s 1);
  Alcotest.(check int) "j2 squeezed in front" 0 (Schedule.start s 2)

let test_aggressiveness_ordering_example () =
  (* On the Graham-tight family: FCFS = conservative = EASY = LSRC makespans
     may differ; check the documented ordering on this instance. *)
  let inst, _opt = Resa_gen.Adversarial.fcfs_bad ~m:4 ~len:10 in
  let c name s = (name, Schedule.makespan inst s) in
  let results =
    [
      c "fcfs" (Fcfs.run inst);
      c "cons" (Backfill.conservative inst);
      c "easy" (Backfill.easy inst);
      c "lsrc" (Lsrc.run inst);
    ]
  in
  let get n = List.assoc n results in
  Alcotest.(check bool) "backfilling helps here" true (get "cons" < get "fcfs");
  Alcotest.(check bool) "EASY at least as aggressive" true (get "easy" <= get "cons")

let prop_conservative_feasible =
  Tutil.qcheck ~count:200 "conservative schedules feasible" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Schedule.is_feasible inst (Backfill.conservative inst))

let prop_easy_feasible =
  Tutil.qcheck ~count:200 "EASY schedules feasible" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Schedule.is_feasible inst (Backfill.easy inst))

let prop_conservative_certificate =
  Tutil.qcheck ~count:150 "conservative never delays earlier jobs" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let order = Priority.order Priority.Fifo inst in
      Backfill.no_earlier_job_delayed inst order (Backfill.conservative_order inst order))

let prop_conservative_head_equals_fcfs_head =
  (* The first job of the queue starts at the same instant under FCFS and
     conservative backfilling. *)
  Tutil.qcheck "first queued job identical under FCFS and conservative" Tutil.seed_arb
    (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Instance.n_jobs inst = 0
      || Schedule.start (Fcfs.run inst) 0 = Schedule.start (Backfill.conservative inst) 0)

let prop_backfillers_above_lower_bound =
  Tutil.qcheck ~count:150 "backfilling variants respect the exact lower bound" Tutil.seed_arb
    (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let lb = Resa_exact.Lower_bounds.best inst in
      Schedule.makespan inst (Backfill.easy inst) >= lb
      && Schedule.makespan inst (Backfill.conservative inst) >= lb)

(* Offline EASY runs the online policy and maps records back by
   submission position: job ids need only be distinct, so here they are a
   shuffle of the positions or far outside them, and the orders are not
   the identity. The oracle indexes jobs by position throughout. *)
let test_easy_order_maps_by_position () =
  let sizes = [ (2, 3); (2, 4); (3, 1); (1, 2); (4, 1) ] in
  List.iter
    (fun ids ->
      let jobs = List.map2 (fun id (p, q) -> Job.make ~id ~p ~q) ids sizes in
      let reservations = [ Reservation.make ~id:0 ~start:3 ~p:2 ~q:2 ] in
      let inst = Instance.create_exn ~m:4 ~jobs ~reservations in
      List.iter
        (fun priority ->
          let order = Priority.order priority inst in
          Alcotest.(check (array int))
            (Printf.sprintf "ids %s, %s" (String.concat "," (List.map string_of_int ids))
               (Priority.name priority))
            (Schedule.starts (Resa_oracles.Backfill.easy_order_reference inst order))
            (Schedule.starts (Backfill.easy_order inst order)))
        [ Priority.Fifo; Priority.Lpt; Priority.Spt; Priority.Explicit [| 4; 2; 0; 3; 1 |] ])
    [ [ 3; 0; 4; 1; 2 ]; [ 40; 7; 1000; 12; 5 ] ]

let suite =
  [
    Alcotest.test_case "conservative backfills holes" `Quick test_conservative_backfills;
    Alcotest.test_case "conservative never delays" `Quick test_conservative_never_delays;
    Alcotest.test_case "EASY backfills safely" `Quick test_easy_backfills_safely;
    Alcotest.test_case "EASY blocks harmful backfill" `Quick test_easy_blocks_harmful_backfill;
    Alcotest.test_case "conservative places after head" `Quick test_conservative_allows_what_easy_blocks;
    Alcotest.test_case "backfilling around reservations" `Quick test_backfill_around_reservation;
    Alcotest.test_case "aggressiveness ordering example" `Quick test_aggressiveness_ordering_example;
    prop_conservative_feasible;
    prop_easy_feasible;
    prop_conservative_certificate;
    prop_conservative_head_equals_fcfs_head;
    prop_backfillers_above_lower_bound;
    Alcotest.test_case "EASY adapter maps back by position" `Quick
      test_easy_order_maps_by_position;
  ]
