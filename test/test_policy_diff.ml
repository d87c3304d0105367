(* Differential suite: the timeline-native policies must take exactly the
   decisions of the Profile-based oracles ([Resa_oracles.Policy.*_reference],
   the pre-timeline-native engine) — same starts, same makespan, and the
   same traced event stream (plans, wakes, provenance) — on random reserved
   workloads, with exact runtimes and with overestimated walltimes. *)

open Resa_core
open Resa_sim
module Trace = Resa_obs.Trace

let pairs =
  [
    ("FCFS", Policy.fcfs, Resa_oracles.Policy.fcfs_reference);
    ("CONS", Policy.conservative, Resa_oracles.Policy.conservative_reference);
    ("EASY", Policy.easy, Resa_oracles.Policy.easy_reference);
    ("LSRC", Policy.aggressive, Resa_oracles.Policy.aggressive_reference);
  ]

(* Random alpha-restricted instance with reservations and poisson arrivals;
   size varies with the seed so queues range from empty to congested. *)
let workload_of_seed seed =
  let rng = Prng.create ~seed in
  let n = 6 + Prng.int rng ~bound:15 in
  let mean_gap = 1.0 +. (float_of_int (Prng.int rng ~bound:40) /. 10.0) in
  let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n ~alpha:0.5 ~pmax:9 () in
  let arr = Resa_gen.Arrivals.poisson rng ~n ~mean_gap in
  let subs =
    List.init n (fun i -> Tutil.exact (Instance.job inst i) arr.(i))
  in
  (n, subs, Array.to_list (Instance.reservations inst))

let stream events = Tutil.trace_text (events ())

(* The run's stats and starts (by job id), and its event stream. *)
let run_traced ~policy ~m ~reservations subs =
  let obs, obs_events = Tutil.recorder () in
  let stats, records = Tutil.simulate ~obs ~policy ~m ~reservations subs in
  ((stats, Tutil.starts_by_id records), stream obs_events)

let agree ~reservations subs seed =
  List.for_all
    (fun (name, native, reference) ->
      let a, sa = run_traced ~policy:native ~m:8 ~reservations subs in
      let b, sb = run_traced ~policy:reference ~m:8 ~reservations subs in
      let ok = a = b && sa = sb in
      if not ok then Printf.eprintf "%s diverges from its oracle on seed %d\n" name seed;
      ok)
    pairs

let prop_exact =
  Tutil.qcheck ~count:120 "native = oracle on reserved workloads" Tutil.seed_arb
    (fun seed ->
      let _, subs, reservations = workload_of_seed seed in
      agree ~reservations subs seed)

let prop_overestimated =
  Tutil.qcheck ~count:120 "native = oracle under walltime overestimates"
    QCheck.(pair Tutil.seed_arb Tutil.seed_arb)
    (fun (s1, s2) ->
      let _, subs, reservations = workload_of_seed s1 in
      let erng = Prng.create ~seed:s2 in
      (* Factor 1..4 per job: early releases make decision instants that
         neither engine saw at planning time. *)
      let subs =
        List.map
          (fun (a : Simulator.arrival) ->
            { a with estimate = Job.p a.job * Prng.int_incl erng ~lo:1 ~hi:4 })
          subs
      in
      agree ~reservations subs s1)

(* Deterministic pin: the EASY backfill example must also agree traced —
   guards the backfill guard against silent drift. *)
let test_easy_pinned () =
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:4 ~q:3) 0;
      Tutil.exact (Job.make ~id:1 ~p:4 ~q:4) 0;
      Tutil.exact (Job.make ~id:2 ~p:4 ~q:1) 0;
    ]
  in
  let a, sa = run_traced ~policy:Policy.easy ~m:4 ~reservations:[] subs in
  let b, sb = run_traced ~policy:Resa_oracles.Policy.easy_reference ~m:4 ~reservations:[] subs in
  Alcotest.(check (list int)) "same starts" (snd b) (snd a);
  Alcotest.(check string) "same event stream" sb sa;
  Alcotest.(check (list int)) "expected schedule" [ 0; 4; 0 ] (snd a)

(* Deep queues: hundreds of jobs submitted at 0, so every policy starts far
   more jobs than stay queued and the waiting queue compacts several times
   per run. The engine must keep agreeing start for start with the offline
   Profile oracles, which share none of its queue code, under every
   standard order (LPT, SPT, widest, narrowest and area have many equal
   keys) and a random one. This is the test of every offline scheduler,
   each of which is this engine run ([Simulator.run_order]). *)
let offline_oracles =
  [
    ("LSRC", Policy.aggressive, Resa_oracles.Lsrc.run_order_reference);
    ("FCFS", Policy.fcfs, Resa_oracles.Fcfs.run_order_reference);
    ("CONS", Policy.conservative, Resa_oracles.Backfill.conservative_order_reference);
    ("EASY", Policy.easy, Resa_oracles.Backfill.easy_order_reference);
  ]

let test_deep_queue_at_zero () =
  List.iter
    (fun seed ->
      let inst =
        Resa_gen.Random_inst.alpha_restricted (Prng.create ~seed) ~m:16 ~n:240 ~alpha:0.5
          ~pmax:20 ()
      in
      if Instance.n_reservations inst = 0 then Alcotest.fail "instance without reservations";
      List.iter
        (fun priority ->
          let order = Resa_algos.Priority.order priority inst in
          List.iter
            (fun (name, policy, oracle) ->
              Alcotest.(check (array int))
                (Printf.sprintf "%s seed %d %s" name seed (Resa_algos.Priority.name priority))
                (Schedule.starts (oracle inst order))
                (Schedule.starts (Simulator.run_order ~policy inst order)))
            offline_oracles)
        (Resa_algos.Priority.standard @ [ Resa_algos.Priority.Random seed ]))
    [ 7; 8 ]

let suite =
  [
    Alcotest.test_case "EASY pinned example agrees traced" `Quick test_easy_pinned;
    Alcotest.test_case "engine = offline oracles on 240 jobs at 0" `Quick test_deep_queue_at_zero;
    prop_exact;
    prop_overestimated;
  ]
