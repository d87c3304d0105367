(* Generators: Threepartition, Adversarial, Packed, Random_inst, Arrivals. *)

open Resa_core
open Resa_gen

(* --- 3-PARTITION --- *)

let test_tp_validation () =
  (match Threepartition.make ~xs:[| 1; 2 |] ~b:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-multiple of 3 accepted");
  match Threepartition.make ~xs:[| 1; 2; 3 |] ~b:10 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad sum accepted"

let test_tp_solver_yes () =
  let tp = Threepartition.make_exn ~xs:[| 4; 3; 3; 5; 4; 1 |] ~b:10 in
  match Threepartition.solve tp with
  | None -> Alcotest.fail "solvable instance declared NO"
  | Some groups -> Alcotest.(check bool) "assignment valid" true (Threepartition.check_assignment tp groups)

let test_tp_solver_no () =
  let tp = Threepartition.make_exn ~xs:[| 5; 5; 5; 1; 2; 2 |] ~b:10 in
  Alcotest.(check bool) "NO detected" false (Threepartition.is_yes tp)

let test_tp_random_yes_solvable () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 10 do
    let tp = Threepartition.random_yes rng ~k:4 ~b:15 in
    Alcotest.(check bool) "planted solution found" true (Threepartition.is_yes tp)
  done

let test_tp_check_assignment_rejects () =
  let tp = Threepartition.make_exn ~xs:[| 4; 3; 3; 5; 4; 1 |] ~b:10 in
  Alcotest.(check bool) "wrong grouping rejected" false
    (Threepartition.check_assignment tp [| 0; 0; 0; 0; 1; 1 |])

let prop_random_has_right_sum =
  Tutil.qcheck ~count:50 "random instances have total k*b" Tutil.seed_arb (fun seed ->
      let rng = Prng.create ~seed in
      let tp = Threepartition.random rng ~k:3 ~b:9 in
      Array.fold_left ( + ) 0 tp.Threepartition.xs = 27)

(* --- adversarial families --- *)

let test_prop2_structure () =
  let k = 4 in
  let inst, opt = Adversarial.prop2 ~k in
  Alcotest.(check int) "m" (k * k * (k - 1)) (Instance.m inst);
  Alcotest.(check int) "jobs" ((2 * k) - 1) (Instance.n_jobs inst);
  Alcotest.(check int) "optimal" k opt;
  (* The instance is alpha-restricted for alpha = 2/k. *)
  Alcotest.(check bool) "alpha-restricted" true
    (Instance.is_alpha_restricted inst ~alpha:(Adversarial.prop2_alpha ~k))

let test_prop2_optimum_achievable () =
  (* A witness schedule of makespan k: long jobs at 0, short-wide jobs
     stacked one per unit step. *)
  let k = 4 in
  let inst, opt = Adversarial.prop2 ~k in
  let starts = Array.make (Instance.n_jobs inst) 0 in
  for i = 0 to k - 1 do
    starts.(i) <- i
  done;
  let witness = Schedule.make starts in
  Tutil.check_feasible "witness" inst witness;
  Alcotest.(check int) "achieves the optimum" opt (Schedule.makespan inst witness)

let test_prop2_lsrc_ratio () =
  List.iter
    (fun k ->
      let inst, opt = Adversarial.prop2 ~k in
      let lsrc = Schedule.makespan inst (Resa_algos.Lsrc.run inst) in
      Alcotest.(check int)
        (Printf.sprintf "LSRC value at k=%d" k)
        (Adversarial.prop2_expected_lsrc ~k) lsrc;
      let ratio = float_of_int lsrc /. float_of_int opt in
      let predicted = Resa_analysis.Ratio_bounds.prop2_value ~alpha:(Adversarial.prop2_alpha ~k) in
      Alcotest.(check (float 1e-9)) "ratio = 2/a - 1 + a/2" predicted ratio)
    [ 3; 4; 5; 6; 7 ]

let test_prop2_figure3_numbers () =
  (* Figure 3 is the k=6 member: C_opt = 6, LSRC = 31 (= 5·6+1). *)
  let inst, opt = Adversarial.prop2 ~k:6 in
  Alcotest.(check int) "C_opt = 6" 6 opt;
  Alcotest.(check int) "LSRC = 31" 31 (Schedule.makespan inst (Resa_algos.Lsrc.run inst));
  Alcotest.(check int) "m = 180" 180 (Instance.m inst)

let test_graham_tight_values () =
  List.iter
    (fun m ->
      let inst, opt = Adversarial.graham_tight ~m in
      let lsrc = Schedule.makespan inst (Resa_algos.Lsrc.run inst) in
      Alcotest.(check int) (Printf.sprintf "opt at m=%d" m) m opt;
      Alcotest.(check int) (Printf.sprintf "lsrc at m=%d" m) ((2 * m) - 1) lsrc)
    [ 2; 3; 5; 8 ]

let test_fcfs_bad_values () =
  let inst, opt = Adversarial.fcfs_bad ~m:6 ~len:30 in
  Alcotest.(check int) "opt" 36 opt;
  Alcotest.(check int) "fcfs" (6 * 31) (Schedule.makespan inst (Resa_algos.Fcfs.run inst));
  (* Optimum is achievable. *)
  let starts = Array.make (Instance.n_jobs inst) 0 in
  for i = 0 to 5 do
    starts.(2 * i) <- 0;
    starts.((2 * i) + 1) <- 30 + i
  done;
  let w = Schedule.make starts in
  Tutil.check_feasible "fcfs_bad witness" inst w;
  Alcotest.(check int) "witness achieves opt" opt (Schedule.makespan inst w)

let test_family_parameter_validation () =
  Alcotest.check_raises "prop2 k<3" (Invalid_argument "Adversarial.prop2: k must be >= 3")
    (fun () -> ignore (Adversarial.prop2 ~k:2));
  Alcotest.check_raises "graham m<2" (Invalid_argument "Adversarial.graham_tight: m must be >= 2")
    (fun () -> ignore (Adversarial.graham_tight ~m:1))

(* --- packed generator --- *)

let test_packed_known_optimum () =
  let rng = Prng.create ~seed:11 in
  let p = Packed.generate rng ~m:8 ~c:20 ~target_jobs:25 () in
  Alcotest.(check int) "optimal = c" 20 p.optimal;
  Tutil.check_feasible "witness feasible" p.instance p.witness;
  Alcotest.(check int) "witness achieves c" 20 (Schedule.makespan p.instance p.witness);
  (* Perfect pack: work fills the machine. *)
  Alcotest.(check int) "full area" (8 * 20) (Instance.total_work p.instance)

let test_packed_with_reservations () =
  let rng = Prng.create ~seed:12 in
  let p = Packed.generate rng ~m:8 ~c:20 ~target_jobs:30 ~reservation_fraction:0.3 () in
  Tutil.check_feasible "witness with reservations" p.instance p.witness;
  Alcotest.(check bool) "some reservations made" true (Instance.n_reservations p.instance > 0);
  (* The work bound certifies optimality of the witness. *)
  Alcotest.(check int) "work bound = c" p.optimal (Resa_exact.Lower_bounds.work_bound p.instance)

let prop_packed_lower_bound_tight =
  Tutil.qcheck ~count:60 "packed: work bound certifies the optimum" Tutil.seed_arb (fun seed ->
      let rng = Prng.create ~seed in
      let p = Packed.generate rng ~m:6 ~c:12 ~target_jobs:12 ~reservation_fraction:0.25 () in
      Resa_exact.Lower_bounds.work_bound p.instance = p.optimal
      && Schedule.makespan p.instance p.witness = p.optimal)

let prop_packed_heuristics_within_graham =
  Tutil.qcheck ~count:60 "LSRC within 2-1/m of packed optimum (no reservations)" Tutil.seed_arb
    (fun seed ->
      let rng = Prng.create ~seed in
      let p = Packed.generate rng ~m:6 ~c:12 ~target_jobs:12 () in
      let lsrc = Schedule.makespan p.instance (Resa_algos.Lsrc.run p.instance) in
      float_of_int lsrc <= (2.0 -. (1.0 /. 6.0)) *. float_of_int p.optimal +. 1e-9)

(* --- random instances and arrivals --- *)

let test_alpha_restricted_generator () =
  let rng = Prng.create ~seed:21 in
  for _ = 1 to 10 do
    let inst = Random_inst.alpha_restricted rng ~m:16 ~n:20 ~alpha:0.5 ~pmax:9 () in
    Alcotest.(check bool) "alpha-restricted" true (Instance.is_alpha_restricted inst ~alpha:0.5);
    Alcotest.(check int) "job count" 20 (Instance.n_jobs inst)
  done

let test_cluster_workload_shapes () =
  let rng = Prng.create ~seed:22 in
  let inst = Random_inst.cluster_workload rng ~m:64 ~n:200 ~max_runtime:1000 in
  Alcotest.(check int) "n" 200 (Instance.n_jobs inst);
  Array.iter
    (fun j ->
      if Job.q j > 64 then Alcotest.fail "width above m";
      if Job.p j > 1000 then Alcotest.fail "runtime above max")
    (Instance.jobs inst)

let test_non_increasing_generator () =
  let rng = Prng.create ~seed:23 in
  for _ = 1 to 10 do
    let inst = Random_inst.non_increasing rng ~m:8 ~n:5 ~pmax:6 ~levels:3 in
    Alcotest.(check bool) "staircase" true (Resa_analysis.Transform.is_non_increasing inst);
    Alcotest.(check bool) "one processor always free" true (Instance.umax inst <= 7)
  done

let test_arrivals_poisson_sorted () =
  let rng = Prng.create ~seed:24 in
  let a = Arrivals.poisson rng ~n:50 ~mean_gap:3.0 in
  Alcotest.(check int) "first at zero" 0 a.(0);
  for i = 1 to 49 do
    if a.(i) < a.(i - 1) then Alcotest.fail "not sorted"
  done

let test_arrivals_uniform_sorted_and_bounded () =
  let rng = Prng.create ~seed:25 in
  let a = Arrivals.uniform rng ~n:50 ~horizon:100 in
  Array.iter (fun t -> if t < 0 || t >= 100 then Alcotest.fail "out of horizon") a;
  for i = 1 to 49 do
    if a.(i) < a.(i - 1) then Alcotest.fail "not sorted"
  done

let suite =
  [
    Alcotest.test_case "3-partition validation" `Quick test_tp_validation;
    Alcotest.test_case "3-partition solver on YES" `Quick test_tp_solver_yes;
    Alcotest.test_case "3-partition solver on NO" `Quick test_tp_solver_no;
    Alcotest.test_case "random_yes is always solvable" `Quick test_tp_random_yes_solvable;
    Alcotest.test_case "assignment checker rejects" `Quick test_tp_check_assignment_rejects;
    prop_random_has_right_sum;
    Alcotest.test_case "prop2 structure and alpha" `Quick test_prop2_structure;
    Alcotest.test_case "prop2 optimum achievable" `Quick test_prop2_optimum_achievable;
    Alcotest.test_case "prop2 LSRC ratio formula (Fig 3)" `Quick test_prop2_lsrc_ratio;
    Alcotest.test_case "Figure 3 exact numbers (k=6)" `Quick test_prop2_figure3_numbers;
    Alcotest.test_case "Graham-tight family values" `Quick test_graham_tight_values;
    Alcotest.test_case "FCFS-bad family values" `Quick test_fcfs_bad_values;
    Alcotest.test_case "family parameter validation" `Quick test_family_parameter_validation;
    Alcotest.test_case "packed: known optimum" `Quick test_packed_known_optimum;
    Alcotest.test_case "packed: with reservations" `Quick test_packed_with_reservations;
    prop_packed_lower_bound_tight;
    prop_packed_heuristics_within_graham;
    Alcotest.test_case "alpha-restricted generator" `Quick test_alpha_restricted_generator;
    Alcotest.test_case "cluster workload shapes" `Quick test_cluster_workload_shapes;
    Alcotest.test_case "non-increasing generator" `Quick test_non_increasing_generator;
    Alcotest.test_case "poisson arrivals" `Quick test_arrivals_poisson_sorted;
    Alcotest.test_case "uniform arrivals" `Quick test_arrivals_uniform_sorted_and_bounded;
  ]
