open Resa_core
open Resa_algos

let test_nfdh_shelves () =
  (* LPT order: p=5(q2), p=4(q2), p=3(q3), p=2(q1). m=4.
     NFDH: shelf1 {j0,j1} (width 4), j2 opens shelf2, j3 joins shelf2. *)
  let inst = Instance.of_sizes ~m:4 [ (5, 2); (4, 2); (3, 3); (2, 1) ] in
  let shelves = Shelf.shelves Shelf.Nfdh inst in
  Alcotest.(check (list (list int))) "partition" [ [ 0; 1 ]; [ 2; 3 ] ] shelves

let test_ffdh_reuses_open_shelves () =
  (* FFDH can put a late narrow job back into an earlier shelf. m=4:
     p=5(q2), p=4(q3), p=3(q2): NFDH -> 3 shelves, FFDH -> j2 joins shelf 1. *)
  let inst = Instance.of_sizes ~m:4 [ (5, 2); (4, 3); (3, 2) ] in
  Alcotest.(check (list (list int))) "NFDH opens three" [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (Shelf.shelves Shelf.Nfdh inst);
  Alcotest.(check (list (list int))) "FFDH reuses the first" [ [ 0; 2 ]; [ 1 ] ]
    (Shelf.shelves Shelf.Ffdh inst)

let test_shelf_schedule_structure () =
  let inst = Instance.of_sizes ~m:4 [ (5, 2); (4, 2); (3, 3); (2, 1) ] in
  let s = Shelf.run Shelf.Nfdh inst in
  Tutil.check_feasible "shelf schedule" inst s;
  (* Shelf members start together. *)
  Alcotest.(check int) "j1 with j0" (Schedule.start s 0) (Schedule.start s 1);
  Alcotest.(check int) "j3 with j2" (Schedule.start s 2) (Schedule.start s 3);
  (* Stacked: second shelf starts at the first shelf's height. *)
  Alcotest.(check int) "stacked" 5 (Schedule.start s 2);
  Alcotest.(check int) "makespan = sum of heights" 8 (Schedule.makespan inst s)

let test_shelf_with_reservation () =
  (* Shelves are stacked into the availability profile. *)
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (1, 3, 1) ] [ (2, 2); (1, 1) ] in
  let s = Shelf.run Shelf.Nfdh inst in
  Tutil.check_feasible "reservation-aware shelves" inst s;
  Alcotest.(check bool) "first shelf waits for full width" true (Schedule.start s 0 >= 4)

let test_width_never_exceeded () =
  let inst = Instance.of_sizes ~m:3 [ (1, 2); (1, 2); (1, 2); (1, 2) ] in
  List.iter
    (fun v ->
      List.iter
        (fun shelf ->
          let w = List.fold_left (fun acc i -> acc + Job.q (Instance.job inst i)) 0 shelf in
          let name = match v with Shelf.Nfdh -> "NFDH" | Shelf.Ffdh -> "FFDH" in
          Alcotest.(check bool) (name ^ " width ok") true (w <= 3))
        (Shelf.shelves v inst))
    [ Shelf.Nfdh; Shelf.Ffdh ]

let prop_feasible =
  Tutil.qcheck ~count:200 "shelf schedules feasible (both variants)" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      Schedule.is_feasible inst (Shelf.run Shelf.Nfdh inst)
      && Schedule.is_feasible inst (Shelf.run Shelf.Ffdh inst))

let prop_partition_complete =
  Tutil.qcheck "shelves partition the job set" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      let all = List.concat (Shelf.shelves Shelf.Ffdh inst) in
      List.sort Int.compare all = List.init (Instance.n_jobs inst) Fun.id)

let prop_ffdh_no_more_shelves =
  Tutil.qcheck "FFDH never uses more shelves than NFDH" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      List.length (Shelf.shelves Shelf.Ffdh inst) <= List.length (Shelf.shelves Shelf.Nfdh inst))

let prop_shelf_never_beats_optimum =
  Tutil.qcheck ~count:100 "shelf >= exact optimum" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      match Tutil.optimal_makespan ~node_limit:200_000 inst with
      | None -> QCheck.assume_fail ()
      | Some opt -> Schedule.makespan inst (Shelf.run Shelf.Nfdh inst) >= opt)

let suite =
  [
    Alcotest.test_case "NFDH shelf partition" `Quick test_nfdh_shelves;
    Alcotest.test_case "FFDH reuses open shelves" `Quick test_ffdh_reuses_open_shelves;
    Alcotest.test_case "shelf schedule structure" `Quick test_shelf_schedule_structure;
    Alcotest.test_case "shelves respect reservations" `Quick test_shelf_with_reservation;
    Alcotest.test_case "shelf width bounded by m" `Quick test_width_never_exceeded;
    prop_feasible;
    prop_partition_complete;
    prop_ffdh_no_more_shelves;
    prop_shelf_never_beats_optimum;
  ]
