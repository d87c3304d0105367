open Resa_core
open Resa_algos
open Resa_flow
module Profile = Resa_oracles.Profile_oracle

(* --- max-flow substrate --- *)

let test_maxflow_basic () =
  let g = Maxflow.create ~n_nodes:4 in
  let _ = Maxflow.add_edge g ~src:0 ~dst:1 ~cap:3 in
  let _ = Maxflow.add_edge g ~src:0 ~dst:2 ~cap:2 in
  let e13 = Maxflow.add_edge g ~src:1 ~dst:3 ~cap:2 in
  let _ = Maxflow.add_edge g ~src:2 ~dst:3 ~cap:3 in
  let _ = Maxflow.add_edge g ~src:1 ~dst:2 ~cap:5 in
  Alcotest.(check int) "max flow" 5 (Maxflow.max_flow g ~source:0 ~sink:3);
  Alcotest.(check int) "edge 1->3 saturated" 2 (Maxflow.flow_on g e13)

let test_maxflow_disconnected () =
  let g = Maxflow.create ~n_nodes:3 in
  let _ = Maxflow.add_edge g ~src:0 ~dst:1 ~cap:7 in
  Alcotest.(check int) "no path" 0 (Maxflow.max_flow g ~source:0 ~sink:2)

let test_maxflow_bottleneck () =
  let g = Maxflow.create ~n_nodes:4 in
  let _ = Maxflow.add_edge g ~src:0 ~dst:1 ~cap:100 in
  let _ = Maxflow.add_edge g ~src:1 ~dst:2 ~cap:1 in
  let _ = Maxflow.add_edge g ~src:2 ~dst:3 ~cap:100 in
  Alcotest.(check int) "bottleneck" 1 (Maxflow.max_flow g ~source:0 ~sink:3)

let prop_maxflow_bipartite_matching =
  (* On a k×k bipartite graph with all edges, max flow = k. *)
  Tutil.qcheck ~count:30 "complete bipartite matching" QCheck.(int_range 1 8) (fun k ->
      let g = Maxflow.create ~n_nodes:(2 + (2 * k)) in
      for i = 0 to k - 1 do
        ignore (Maxflow.add_edge g ~src:0 ~dst:(2 + i) ~cap:1);
        ignore (Maxflow.add_edge g ~src:(2 + k + i) ~dst:1 ~cap:1);
        for j = 0 to k - 1 do
          ignore (Maxflow.add_edge g ~src:(2 + i) ~dst:(2 + k + j) ~cap:1)
        done
      done;
      Maxflow.max_flow g ~source:0 ~sink:1 = k)

(* --- preemptive scheduling --- *)

let test_mcnaughton_classic () =
  (* m=2, jobs 1,1,1: continuous optimum is 1.5; integer-preemptive is 2. *)
  let inst = Instance.of_sizes ~m:2 [ (1, 1); (1, 1); (1, 1) ] in
  let r = Preemptive.optimal inst in
  Alcotest.(check int) "integer preemptive optimum" 2 r.makespan;
  Alcotest.(check bool) "valid" true (Preemptive.validate inst r)

let test_wraparound_splits () =
  (* m=2, jobs 3,3,2: W=8, optimum ceil(8/2)=4 needs a split job. *)
  let inst = Instance.of_sizes ~m:2 [ (3, 1); (3, 1); (2, 1) ] in
  let r = Preemptive.optimal inst in
  Alcotest.(check int) "perfect packing" 4 r.makespan;
  Alcotest.(check bool) "valid" true (Preemptive.validate inst r)

let test_preemption_beats_nonpreemption () =
  (* A reservation splits time so a long job MUST preempt to use the gap. *)
  let inst = Instance.of_sizes ~m:1 ~reservations:[ (2, 3, 1) ] [ (4, 1) ] in
  let r = Preemptive.optimal inst in
  Alcotest.(check int) "preemptive threads the gap" 7 r.makespan;
  Alcotest.(check bool) "valid" true (Preemptive.validate inst r);
  (* Non-preemptive must take the window after the reservation. *)
  let lsrc = Schedule.makespan inst (Lsrc.run inst) in
  Alcotest.(check int) "non-preemptive waits" 9 lsrc

let test_schmidt_condition_hand () =
  let inst = Instance.of_sizes ~m:2 [ (1, 1); (1, 1); (1, 1) ] in
  Alcotest.(check bool) "infeasible at 1" false (Preemptive.schmidt_feasible inst ~deadline:1);
  Alcotest.(check bool) "feasible at 2" true (Preemptive.schmidt_feasible inst ~deadline:2)

let test_rejects_parallel_jobs () =
  let inst = Instance.of_sizes ~m:4 [ (1, 2) ] in
  Alcotest.check_raises "q=1 only" (Invalid_argument "Preemptive: jobs must have q = 1")
    (fun () -> ignore (Preemptive.optimal inst))

let test_empty () =
  let inst = Instance.of_sizes ~m:3 [] in
  Alcotest.(check int) "empty" 0 (Preemptive.optimal inst).makespan

let seq_instance_of_seed seed =
  let rng = Prng.create ~seed in
  let m = Prng.int_incl rng ~lo:1 ~hi:6 in
  let n = Prng.int_incl rng ~lo:1 ~hi:8 in
  let jobs = List.init n (fun i -> Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:8) ~q:1) in
  let reservations = ref [] and u = ref (Profile.constant 0) in
  for i = 0 to Prng.int_incl rng ~lo:0 ~hi:2 - 1 do
    let start = Prng.int rng ~bound:12 and p = Prng.int_incl rng ~lo:1 ~hi:6 in
    let q = Prng.int_incl rng ~lo:1 ~hi:m in
    let u' = Profile.change !u ~lo:start ~hi:(start + p) ~delta:q in
    if Profile.max_value u' <= m then begin
      u := u';
      reservations := Reservation.make ~id:i ~start ~p ~q :: !reservations
    end
  done;
  Instance.create_exn ~m ~jobs ~reservations:!reservations

let prop_schmidt_equals_flow =
  Tutil.qcheck ~count:150 "Schmidt condition = flow feasibility" QCheck.(pair Tutil.seed_arb (int_range 0 30))
    (fun (seed, deadline) ->
      let inst = seq_instance_of_seed seed in
      Preemptive.schmidt_feasible inst ~deadline = Preemptive.feasible_by inst ~deadline)

let prop_optimal_schedules_validate =
  Tutil.qcheck ~count:100 "optimal preemptive schedules validate" Tutil.seed_arb (fun seed ->
      let inst = seq_instance_of_seed seed in
      let r = Preemptive.optimal inst in
      Preemptive.validate inst r)

let prop_preemptive_below_nonpreemptive =
  Tutil.qcheck ~count:100 "preemptive opt <= non-preemptive opt" Tutil.seed_arb (fun seed ->
      let inst = seq_instance_of_seed seed in
      let pre = (Preemptive.optimal inst).makespan in
      match Tutil.optimal_makespan ~node_limit:300_000 inst with
      | None -> QCheck.assume_fail ()
      | Some np -> pre <= np)

let prop_preemptive_minimal =
  Tutil.qcheck ~count:80 "one less unit is infeasible" Tutil.seed_arb (fun seed ->
      let inst = seq_instance_of_seed seed in
      let r = Preemptive.optimal inst in
      r.makespan = 0 || not (Preemptive.feasible_by inst ~deadline:(r.makespan - 1)))

let suite =
  [
    Alcotest.test_case "max flow basics" `Quick test_maxflow_basic;
    Alcotest.test_case "max flow disconnected" `Quick test_maxflow_disconnected;
    Alcotest.test_case "max flow bottleneck" `Quick test_maxflow_bottleneck;
    prop_maxflow_bipartite_matching;
    Alcotest.test_case "McNaughton classic" `Quick test_mcnaughton_classic;
    Alcotest.test_case "wrap-around splits a job" `Quick test_wraparound_splits;
    Alcotest.test_case "preemption threads reservation gaps" `Quick test_preemption_beats_nonpreemption;
    Alcotest.test_case "Schmidt condition by hand" `Quick test_schmidt_condition_hand;
    Alcotest.test_case "parallel jobs rejected" `Quick test_rejects_parallel_jobs;
    Alcotest.test_case "empty instance" `Quick test_empty;
    prop_schmidt_equals_flow;
    prop_optimal_schedules_validate;
    prop_preemptive_below_nonpreemptive;
    prop_preemptive_minimal;
  ]
