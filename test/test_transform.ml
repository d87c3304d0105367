open Resa_core
open Resa_analysis
open Resa_gen

let test_is_non_increasing () =
  Alcotest.(check bool) "figure 2 example" true
    (Transform.is_non_increasing (Adversarial.figure2_example ()));
  let increasing = Instance.of_sizes ~m:4 ~reservations:[ (5, 3, 2) ] [ (1, 1) ] in
  Alcotest.(check bool) "late reservation is increasing" false
    (Transform.is_non_increasing increasing);
  let none = Instance.of_sizes ~m:4 [ (1, 1) ] in
  Alcotest.(check bool) "no reservations is trivially non-increasing" true
    (Transform.is_non_increasing none)

let test_clip_shapes () =
  let inst = Adversarial.figure2_example () in
  (* U: 6 on [0,4), 3 on [4,9), 0 after; m=10. Clip at 6: m' = 10-3 = 7,
     U' = 3 on [0,4), 0 after. *)
  let clipped = Transform.clip inst ~at:6 in
  Alcotest.(check int) "m'" 7 (Instance.m clipped);
  let u = Instance.unavailability clipped in
  Alcotest.(check int) "U' early" 3 (Profile.value_at u 0);
  Alcotest.(check int) "U' mid" 0 (Profile.value_at u 5);
  Alcotest.(check int) "U' late" 0 (Profile.value_at u 20);
  (* Availability agrees with the original before the clip point. *)
  let a = Instance.availability inst and a' = Instance.availability clipped in
  List.iter
    (fun t ->
      Alcotest.(check int) (Printf.sprintf "avail at %d" t) (Profile.value_at a t)
        (Profile.value_at a' t))
    [ 0; 2; 3; 5 ]

let test_to_rigid_head_jobs () =
  let inst = Adversarial.figure2_example () in
  let rigid, n_head = Transform.to_rigid inst in
  Alcotest.(check int) "two availability steps" 2 n_head;
  Alcotest.(check int) "no reservations left" 0 (Instance.n_reservations rigid);
  Alcotest.(check int) "job count" (Instance.n_jobs inst + n_head) (Instance.n_jobs rigid);
  (* Head jobs: q = U_j − U_{j+1}, p = t_{j+1}: (q=3,p=4) and (q=3,p=9). *)
  let h0 = Instance.job rigid 0 and h1 = Instance.job rigid 1 in
  Alcotest.(check (pair int int)) "head 0" (4, 3) (Job.p h0, Job.q h0);
  Alcotest.(check (pair int int)) "head 1" (9, 3) (Job.p h1, Job.q h1)

let test_to_rigid_preserves_lsrc_makespan () =
  (* Proposition 1's key step: with head jobs first, FIFO LSRC yields the
     same makespan on I'' as on I. *)
  let inst = Adversarial.figure2_example () in
  let rigid, n_head = Transform.to_rigid inst in
  let s = Resa_algos.Lsrc.run inst in
  let s'' = Resa_algos.Lsrc.run rigid in
  (* Heads recreate the staircase at time 0. *)
  for j = 0 to n_head - 1 do
    Alcotest.(check int) (Printf.sprintf "head %d at 0" j) 0 (Schedule.start s'' j)
  done;
  Alcotest.(check int) "makespan preserved" (Schedule.makespan inst s)
    (Schedule.makespan rigid s'')

let test_prop1_bound_holds () =
  (* Full Prop 1 statement on the example: LSRC <= (2 − 1/m(C_opt))·C_opt. *)
  let inst = Adversarial.figure2_example () in
  let r = Resa_exact.Bnb.solve inst in
  Alcotest.(check bool) "exact opt available" true r.optimal;
  let m_at_opt = Profile.value_at (Instance.availability inst) r.makespan in
  let bound = Ratio_bounds.prop1_bound ~m_at_opt *. float_of_int r.makespan in
  let lsrc = Schedule.makespan inst (Resa_algos.Lsrc.run inst) in
  Alcotest.(check bool) "within Prop 1 bound" true (float_of_int lsrc <= bound +. 1e-9)

let prop_clip_at_opt_preserves_optimum =
  (* The proof of Proposition 1 claims I and I' = clip(I, C_opt) have the
     same optimum; check it with the exact solver. *)
  Tutil.qcheck ~count:40 "clip at the optimum preserves the optimum" Tutil.seed_arb
    (fun seed ->
      let rng = Prng.create ~seed in
      let inst = Random_inst.non_increasing rng ~m:6 ~n:4 ~pmax:5 ~levels:2 in
      match Tutil.optimal_makespan ~node_limit:300_000 inst with
      | None -> QCheck.assume_fail ()
      | Some opt ->
        if Instance.m inst - Profile.value_at (Instance.unavailability inst) opt < 1 then true
        else begin
          let clipped = Transform.clip inst ~at:opt in
          match Tutil.optimal_makespan ~node_limit:300_000 clipped with
          | None -> QCheck.assume_fail ()
          | Some opt' -> opt = opt'
        end)

let test_clip_rejects_increasing () =
  let inst = Instance.of_sizes ~m:4 ~reservations:[ (5, 3, 2) ] [ (1, 1) ] in
  Alcotest.check_raises "must be non-increasing"
    (Invalid_argument "Transform: instance must have non-increasing reservations") (fun () ->
      ignore (Transform.clip inst ~at:3))

let test_three_partition_reduction_yes () =
  let rng = Prng.create ~seed:5 in
  let tp = Threepartition.random_yes rng ~k:3 ~b:10 in
  let inst = Transform.of_three_partition ~xs:tp.Threepartition.xs ~b:10 ~rho:2 in
  Alcotest.(check int) "single machine" 1 (Instance.m inst);
  Alcotest.(check int) "3k jobs" 9 (Instance.n_jobs inst);
  Alcotest.(check int) "k reservations" 3 (Instance.n_reservations inst);
  let target = Transform.three_partition_target ~k:3 ~b:10 in
  Alcotest.(check int) "target value" 32 target;
  (* YES instance: the optimum hits the target exactly. *)
  let r = Resa_exact.Bnb.solve inst in
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check int) "achieves target" target r.makespan

let test_three_partition_reduction_no () =
  (* A NO instance: {5,5,5,5,5,5} cannot triple-sum to 14/16 evenly...
     use xs summing to k*b with one oversized element. *)
  (* 4a + 6b never equals 13, so no subset fills a window of length 13 at
     all: a strict NO instance, with every element inside (B/4, B/2) as
     3-PARTITION requires. *)
  let xs = [| 4; 4; 4; 4; 4; 6 |] in
  let tp = Result.get_ok (Threepartition.make ~xs ~b:13) in
  Alcotest.(check bool) "really a NO instance" false (Threepartition.is_yes tp);
  let inst = Transform.of_three_partition ~xs ~b:13 ~rho:2 in
  let r = Resa_exact.Bnb.solve inst in
  Alcotest.(check bool) "optimal" true r.optimal;
  (* Any schedule pushes some job past the huge final reservation, which
     ends at (ρ+1)·k·(b+1). *)
  Alcotest.(check bool) "pushed past the wall" true (r.makespan > (2 + 1) * 2 * (13 + 1))

let test_reduction_rejects_bad_input () =
  Alcotest.check_raises "sum mismatch"
    (Invalid_argument "Transform.of_three_partition: sum xs must equal k*b") (fun () ->
      ignore (Transform.of_three_partition ~xs:[| 1; 2; 3 |] ~b:10 ~rho:1))

let prop_to_rigid_work_conserved =
  Tutil.qcheck ~count:100 "transformation conserves blocked area as work" Tutil.seed_arb
    (fun seed ->
      let rng = Prng.create ~seed in
      let inst = Random_inst.non_increasing rng ~m:6 ~n:4 ~pmax:5 ~levels:3 in
      let rigid, n_head = Transform.to_rigid inst in
      let u = Instance.unavailability inst in
      let horizon = Instance.horizon inst in
      let blocked_area = Profile.integral_on u ~lo:0 ~hi:(max 1 horizon) in
      let head_work =
        List.fold_left ( + ) 0 (List.init n_head (fun j -> Job.area (Instance.job rigid j)))
      in
      head_work = blocked_area)

let prop_to_rigid_lsrc_simulation =
  (* LSRC on I'' simulates LSRC on I (Prop 1's argument): the head jobs
     recreate the staircase, so the makespans agree up to the staircase end
     (the head jobs themselves run until the horizon). *)
  Tutil.qcheck ~count:100 "LSRC makespan preserved by the transformation" Tutil.seed_arb
    (fun seed ->
      let rng = Prng.create ~seed in
      let inst = Random_inst.non_increasing rng ~m:6 ~n:5 ~pmax:5 ~levels:3 in
      let rigid, _ = Transform.to_rigid inst in
      let horizon = Instance.horizon inst in
      max horizon (Schedule.makespan inst (Resa_algos.Lsrc.run inst))
      = Schedule.makespan rigid (Resa_algos.Lsrc.run rigid))

let suite =
  [
    Alcotest.test_case "non-increasing detection" `Quick test_is_non_increasing;
    Alcotest.test_case "clip reshapes the machine" `Quick test_clip_shapes;
    Alcotest.test_case "head jobs of I''" `Quick test_to_rigid_head_jobs;
    Alcotest.test_case "LSRC makespan preserved (Fig 2)" `Quick test_to_rigid_preserves_lsrc_makespan;
    Alcotest.test_case "Prop 1 bound holds on the example" `Quick test_prop1_bound_holds;
    Alcotest.test_case "clip rejects increasing availability" `Quick test_clip_rejects_increasing;
    Alcotest.test_case "Thm 1 reduction on a YES instance" `Quick test_three_partition_reduction_yes;
    Alcotest.test_case "Thm 1 reduction on a NO instance" `Quick test_three_partition_reduction_no;
    Alcotest.test_case "reduction input validation" `Quick test_reduction_rejects_bad_input;
    prop_to_rigid_work_conserved;
    prop_to_rigid_lsrc_simulation;
    prop_clip_at_opt_preserves_optimum;
  ]
