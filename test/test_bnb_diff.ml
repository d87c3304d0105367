(* Randomized differential suite for the speculative exact solver: the
   timeline-native parallel Bnb.solve against its frozen persistent-profile
   oracle twin Bnb.solve_reference, plus the pool bit-identity and
   speculation-hygiene guarantees of DESIGN.md §8. *)

open Resa_core
open Resa_exact

let node_limit = 400_000

let starts inst sched = List.init (Instance.n_jobs inst) (Schedule.start sched)

(* Same makespan and same optimality certificate as the oracle. Schedules may
   legitimately differ (the speculative solver's chain-twin rule dominates
   more nodes), so each solver's schedule is checked for feasibility and for
   achieving its reported makespan instead of being compared start-by-start. *)
let agrees_with_reference name mk seed =
  let inst = mk seed in
  let r = Bnb.solve ~node_limit inst in
  let oracle = Bnb.solve_reference ~node_limit inst in
  Tutil.check_feasible name inst r.Bnb.schedule;
  let ok = ref true in
  let check what b =
    if not b then (Printf.eprintf "%s: %s (seed %d)\n" name what seed; ok := false)
  in
  check "schedule achieves reported makespan"
    (Schedule.makespan inst r.Bnb.schedule = r.Bnb.makespan);
  check "makespan matches reference" (r.Bnb.makespan = oracle.Bnb.makespan);
  check "optimal flag matches reference" (r.Bnb.optimal = oracle.Bnb.optimal);
  !ok

(* The full result record — makespan, optimal, node count, and the schedule's
   start vector — must be bit-identical at any pool size. *)
let pool_bit_identity mk seed =
  let inst = mk seed in
  let solve d = Resa_par.with_domains d (fun () -> Bnb.solve ~node_limit inst) in
  let a = solve 1 and b = solve 4 in
  let ok = ref true in
  let check what cond =
    if not cond then (Printf.eprintf "pool identity: %s (seed %d)\n" what seed; ok := false)
  in
  check "makespan" (a.Bnb.makespan = b.Bnb.makespan);
  check "optimal" (a.Bnb.optimal = b.Bnb.optimal);
  check "nodes" (a.Bnb.nodes = b.Bnb.nodes);
  check "starts" (starts inst a.Bnb.schedule = starts inst b.Bnb.schedule);
  !ok

(* Speculation hygiene: solve must leave every worker timeline fully unwound —
   each checkpoint paired with exactly one rollback — including when the node
   budget cuts the search short mid-descent (the DFS returns instead of
   raising precisely so the unwind still happens). *)
let test_checkpoint_pairing () =
  Tutil.with_metrics (fun () ->
      let find = Tutil.counter in
      let balanced label =
        Alcotest.(check bool) (label ^ ": checkpoints opened") true (find "timeline.checkpoint" > 0);
        Alcotest.(check int)
          (label ^ ": checkpoints all resolved")
          (find "timeline.checkpoint")
          (find "timeline.rollback" + find "timeline.commit")
      in
      (* A batch of seeds: some instances are closed at the root by the
         incumbent-vs-lower-bound test, so one instance alone could open no
         speculation scope at all. *)
      for seed = 0 to 30 do
        ignore (Bnb.solve ~node_limit (Tutil.small_resa_of_seed seed))
      done;
      balanced "full solve";
      Resa_obs.Metrics.reset ();
      (* A budget small enough to exhaust mid-search on most instances. *)
      ignore (Bnb.solve ~node_limit:10 (Tutil.small_rigid_of_seed 7));
      balanced "budget-exhausted solve")

let suite =
  [
    Tutil.qcheck ~count:300 "solve = reference (rigid)" Tutil.seed_arb
      (agrees_with_reference "bnb-diff rigid" Tutil.small_rigid_of_seed);
    Tutil.qcheck ~count:300 "solve = reference (reservations)" Tutil.seed_arb
      (agrees_with_reference "bnb-diff resa" Tutil.small_resa_of_seed);
    Tutil.qcheck ~count:100 "bit-identical at pool sizes 1 and 4" Tutil.seed_arb
      (pool_bit_identity Tutil.small_resa_of_seed);
    Alcotest.test_case "checkpoint/rollback pairing" `Quick test_checkpoint_pairing;
  ]
