(* Randomized differential suite for the speculative exact solver: the
   timeline-native parallel Bnb.solve against its frozen persistent-profile
   oracle twin Resa_oracles.Bnb.solve_reference, plus the pool
   bit-identity and speculation-hygiene guarantees of DESIGN.md §8. *)

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
  let oracle = Resa_oracles.Bnb.solve_reference ~node_limit inst in
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
      (* A child is bounded before it is placed, so only the nodes that
         pass their area bound open a checkpoint, plus one per subtree
         root replayed. Each replayed root was also entered once as a node
         of the expansion phase, set aside there rather than pruned, so
         the count fits under the nodes the area bound let through. The
         incumbent heuristics run on the engine, which counts its own
         decision checkpoints in [sim.checkpoints]. *)
      Alcotest.(check bool)
        "pruned children open no checkpoint" true
        (find "timeline.checkpoint" - find "sim.checkpoints"
        <= find "bnb.nodes" - find "bnb.prunes_area");
      Resa_obs.Metrics.reset ();
      (* A budget small enough to exhaust mid-search on most instances. *)
      ignore (Bnb.solve ~node_limit:10 (Tutil.small_rigid_of_seed 7));
      balanced "budget-exhausted solve")

(* Golden search trees: [Bnb.solve]'s makespan, optimal flag, node count
   and start vector, recorded from the solver that placed every child
   before bounding it. The oracle suite above cannot see a changed search
   tree (the reference's twin rule gives other node counts); these can. *)
let golden_small =
  [
    (`Resa, 0, 8, true, 0, [ 5; 0 ]);
    (`Resa, 1, 6, true, 0, [ 0; 1; 4 ]);
    (`Resa, 2, 6, true, 0, [ 0 ]);
    (`Resa, 3, 25, true, 0, [ 0; 19; 7; 0; 7; 13 ]);
    (`Resa, 4, 5, true, 0, [ 0; 0 ]);
    (`Resa, 5, 18, true, 0, [ 0; 0; 2; 10; 3; 17 ]);
    (`Resa, 6, 13, true, 0, [ 0; 6 ]);
    (`Resa, 7, 18, true, 0, [ 0; 5; 13; 16 ]);
    (`Resa, 8, 1, true, 0, [ 0 ]);
    (`Resa, 9, 24, true, 62, [ 0; 10; 0; 3; 18 ]);
    (`Resa, 10, 14, true, 0, [ 4; 0; 3; 5; 7; 12 ]);
    (`Resa, 11, 2, true, 0, [ 0 ]);
    (`Resa, 12, 24, true, 96, [ 0; 5; 0; 9; 12; 16 ]);
    (`Resa, 13, 14, true, 0, [ 0; 6; 0; 11; 0 ]);
    (`Resa, 14, 18, true, 121, [ 0; 0; 11; 2; 2 ]);
    (`Resa, 15, 9, true, 11, [ 0; 6; 0 ]);
    (`Resa, 16, 24, true, 81, [ 7; 22; 9; 19; 4 ]);
    (`Resa, 17, 8, true, 0, [ 0; 0; 2; 3; 3; 6 ]);
    (`Resa, 18, 6, true, 0, [ 0; 0; 0 ]);
    (`Resa, 19, 2, true, 0, [ 0; 0 ]);
    (`Rigid, 0, 19, true, 0, [ 0; 8; 0; 17 ]);
    (`Rigid, 1, 26, true, 352, [ 0; 9; 11; 0; 14; 21; 0 ]);
    (`Rigid, 2, 19, true, 70, [ 0; 0; 12; 8; 5 ]);
    (`Rigid, 3, 14, true, 0, [ 9; 0; 0; 8 ]);
    (`Rigid, 4, 24, true, 0, [ 11; 7; 15; 21; 6; 13; 0; 0 ]);
    (`Rigid, 5, 8, true, 0, [ 0; 0 ]);
    (`Rigid, 6, 16, true, 6, [ 0; 7 ]);
    (`Rigid, 7, 34, true, 24950, [ 0; 6; 14; 16; 0; 2; 25; 33 ]);
    (`Rigid, 8, 22, true, 0, [ 0; 2; 5; 13; 19 ]);
    (`Rigid, 9, 7, true, 0, [ 0 ]);
    (`Rigid, 10, 11, true, 1240, [ 1; 0; 1; 6; 8; 2; 3; 5 ]);
    (`Rigid, 11, 7, true, 0, [ 0 ]);
    (`Rigid, 12, 41, true, 42784, [ 0; 0; 9; 4; 10; 18; 27; 33 ]);
    (`Rigid, 13, 19, true, 0, [ 0; 9; 0; 12; 0 ]);
    (`Rigid, 14, 21, true, 2444, [ 0; 0; 9; 7; 7; 13; 13 ]);
    (`Rigid, 15, 31, true, 0, [ 0; 6; 14; 0; 23 ]);
    (`Rigid, 16, 18, true, 14, [ 0; 6; 9 ]);
    (`Rigid, 17, 16, true, 0, [ 0; 6; 9; 0 ]);
    (`Rigid, 18, 4, true, 0, [ 0 ]);
    (`Rigid, 19, 28, true, 0, [ 0; 0; 7; 4; 11; 15; 24; 25 ]);
  ]

(* The reserved instance of [bench/main.exe bnb --small] (m 128, 6 jobs,
   150 reservations, seed 2): at the bench's node limit, and at this
   suite's, where per-branch budget slices run out and are retried. *)
let reserved_small () =
  let rng = Prng.create ~seed:2 in
  Resa_gen.Random_inst.alpha_restricted rng ~m:128 ~n:6 ~alpha:0.6 ~pmax:300 ~n_reservations:150
    ~horizon:8000 ()

let golden_reserved =
  [
    (Resa_bench.Bnb_bench.node_limit, (498, true, 59064, [ 0; 0; 0; 0; 0; 205 ]));
    (node_limit, (498, true, 76458, [ 0; 0; 0; 0; 0; 205 ]));
  ]

let test_golden_trees () =
  let check name node_limit inst (makespan, optimal, nodes, st) =
    let r = Bnb.solve ~node_limit inst in
    Alcotest.(check int) (name ^ ": makespan") makespan r.Bnb.makespan;
    Alcotest.(check bool) (name ^ ": optimal") optimal r.Bnb.optimal;
    Alcotest.(check int) (name ^ ": nodes") nodes r.Bnb.nodes;
    Alcotest.(check (list int)) (name ^ ": starts") st (starts inst r.Bnb.schedule)
  in
  List.iter
    (fun (family, seed, makespan, optimal, nodes, st) ->
      let name, mk =
        match family with
        | `Resa -> ("resa", Tutil.small_resa_of_seed)
        | `Rigid -> ("rigid", Tutil.small_rigid_of_seed)
      in
      check (Printf.sprintf "%s seed %d" name seed) node_limit (mk seed)
        (makespan, optimal, nodes, st))
    golden_small;
  List.iter
    (fun (limit, expect) ->
      check (Printf.sprintf "reserved, node limit %d" limit) limit (reserved_small ()) expect)
    golden_reserved

let suite =
  [
    Tutil.qcheck ~count:300 "solve = reference (rigid)" Tutil.seed_arb
      (agrees_with_reference "bnb-diff rigid" Tutil.small_rigid_of_seed);
    Tutil.qcheck ~count:300 "solve = reference (reservations)" Tutil.seed_arb
      (agrees_with_reference "bnb-diff resa" Tutil.small_resa_of_seed);
    Tutil.qcheck ~count:100 "bit-identical at pool sizes 1 and 4" Tutil.seed_arb
      (pool_bit_identity Tutil.small_resa_of_seed);
    Alcotest.test_case "checkpoint/rollback pairing" `Quick test_checkpoint_pairing;
    Alcotest.test_case "golden search trees" `Quick test_golden_trees;
  ]
