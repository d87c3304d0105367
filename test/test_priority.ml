open Resa_core
open Resa_algos

let inst = Instance.of_sizes ~m:8 [ (5, 2); (1, 7); (5, 1); (3, 3); (1, 2) ]

let order_of p = Array.to_list (Priority.order p inst)

let test_fifo () = Alcotest.(check (list int)) "identity" [ 0; 1; 2; 3; 4 ] (order_of Priority.Fifo)

let test_lpt () =
  Alcotest.(check (list int)) "decreasing p, ties by index" [ 0; 2; 3; 1; 4 ]
    (order_of Priority.Lpt)

let test_spt () =
  Alcotest.(check (list int)) "increasing p, ties by index" [ 1; 4; 3; 0; 2 ]
    (order_of Priority.Spt)

let test_widest () =
  Alcotest.(check (list int)) "decreasing q" [ 1; 3; 0; 4; 2 ] (order_of Priority.Widest_first)

let test_narrowest () =
  Alcotest.(check (list int)) "increasing q" [ 2; 0; 4; 3; 1 ] (order_of Priority.Narrowest_first)

let test_area () =
  (* areas: 10, 7, 5, 9, 2 *)
  Alcotest.(check (list int)) "decreasing area" [ 0; 3; 1; 2; 4 ]
    (order_of Priority.Largest_area_first)

let test_random_deterministic () =
  let a = order_of (Priority.Random 5) and b = order_of (Priority.Random 5) in
  Alcotest.(check (list int)) "same seed, same order" a b;
  let sorted = List.sort Int.compare a in
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4 ] sorted

let test_names_distinct () =
  let names = List.map Priority.name Priority.standard in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let prop_always_permutation =
  Tutil.qcheck "every rule yields a permutation" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      let n = Instance.n_jobs inst in
      List.for_all
        (fun p ->
          let o = Array.to_list (Priority.order p inst) in
          List.sort Int.compare o = List.init n Fun.id)
        (Priority.Random seed :: Priority.standard))

let suite =
  [
    Alcotest.test_case "FIFO is submission order" `Quick test_fifo;
    Alcotest.test_case "LPT sorts by duration" `Quick test_lpt;
    Alcotest.test_case "SPT sorts by duration ascending" `Quick test_spt;
    Alcotest.test_case "widest-first sorts by width" `Quick test_widest;
    Alcotest.test_case "narrowest-first" `Quick test_narrowest;
    Alcotest.test_case "largest-area-first" `Quick test_area;
    Alcotest.test_case "random order is seeded" `Quick test_random_deterministic;
    Alcotest.test_case "standard rule names are distinct" `Quick test_names_distinct;
    prop_always_permutation;
  ]
