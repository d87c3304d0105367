(* The paper's §2.1 batch construction: Policy.batch on the engine, held
   to its reference loop, Resa_oracles.Online.run_reference. *)

open Resa_core
open Resa_sim
module Online = Resa_oracles.Online

(* [inst]'s jobs submitted at [release] with exact estimates, through
   [Policy.batch policy]: the run's stats and its records. [release] must
   be non-decreasing, so that submission order is index order, the order
   the reference's sub-instances use. *)
let run_batch ?(policy = Policy.aggressive) inst ~release =
  let arrivals =
    List.init (Instance.n_jobs inst) (fun i -> Tutil.exact (Instance.job inst i) release.(i))
  in
  Tutil.simulate ~policy:(Policy.batch policy) ~m:(Instance.m inst)
    ~reservations:(Array.to_list (Instance.reservations inst))
    arrivals

let starts inst sched = List.init (Instance.n_jobs inst) (Schedule.start sched)

(* The records' execution on [inst]'s machine and reservations. *)
let executed inst records =
  Tutil.executed ~m:(Instance.m inst)
    ~reservations:(Array.to_list (Instance.reservations inst))
    records

let feasible inst records =
  let executed, sched = executed inst records in
  Schedule.validate executed sched = Ok ()

let check_executed name inst records =
  let executed, sched = executed inst records in
  Tutil.check_feasible name executed sched

let test_all_released_at_zero_single_batch () =
  let inst = Instance.of_sizes ~m:4 [ (2, 2); (3, 1); (1, 4) ] in
  let release = [| 0; 0; 0 |] in
  Alcotest.(check int) "one batch" 1
    (List.length (Online.run_reference inst ~release).batches);
  (* Equal to plain offline LSRC. *)
  let _, records = run_batch inst ~release in
  Alcotest.(check (list int)) "offline LSRC's starts"
    (starts inst (Resa_algos.Lsrc.run inst))
    (Tutil.starts_by_id records)

let test_release_dates_respected () =
  let inst = Instance.of_sizes ~m:4 [ (2, 2); (3, 1); (1, 4) ] in
  let _, records = run_batch inst ~release:[| 0; 5; 9 |] in
  List.iter
    (fun (r : Simulator.record) ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d not before release" (Job.id r.job))
        true (r.start >= r.submit))
    records

let test_batches_do_not_overlap () =
  let inst = Instance.of_sizes ~m:2 [ (4, 2); (4, 2); (4, 2) ] in
  let r = Online.run_reference inst ~release:[| 0; 1; 5 |] in
  (* Batch k+1 launches only after batch k completed. *)
  let rec check = function
    | (s1 : int) :: (s2 :: _ as rest) ->
      Alcotest.(check bool) "launch times increase" true (s1 < s2);
      check rest
    | _ -> ()
  in
  check r.batch_starts

let test_doubling_guarantee_example () =
  (* Offline optimum for all-at-zero is a lower bound for any release dates;
     the batch algorithm is 2·(2−1/m)-competitive against it plus the last
     release. Just check feasibility and a sane bound here. *)
  let inst = Instance.of_sizes ~m:3 [ (3, 2); (2, 1); (4, 3); (1, 2) ] in
  let release = [| 0; 2; 3; 7 |] in
  let stats, records = run_batch inst ~release in
  check_executed "online schedule" inst records;
  let opt0 = (Resa_exact.Bnb.solve inst).makespan in
  let bound = (2.0 *. 2.0 *. float_of_int opt0) +. float_of_int (Array.fold_left max 0 release) in
  Alcotest.(check bool) "coarse competitive bound" true
    (float_of_int stats.Simulator.makespan <= bound)

let test_reservations_respected_across_batches () =
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (3, 4, 2) ] [ (2, 1); (2, 2) ] in
  let _, records = run_batch inst ~release:[| 0; 4 |] in
  check_executed "online with reservations" inst records

(* The combinator adds no checks of its own: the engine's, made as it
   pulls each submission, hold under it. *)
let test_bad_release_rejected () =
  let inst = Instance.of_sizes ~m:2 [ (1, 1); (1, 1) ] in
  Alcotest.check_raises "negative release" (Invalid_argument "Simulator: negative submit time")
    (fun () -> ignore (run_batch inst ~release:[| 0; -1 |]));
  Alcotest.check_raises "releases out of order"
    (Invalid_argument "Simulator: submit times must be non-decreasing") (fun () ->
      ignore (run_batch inst ~release:[| 3; 2 |]))

(* [n] sorted release dates over [\[0, 30)], from [seed]. *)
let releases seed n = Tutil.uniform_arrivals (Prng.create ~seed) ~n ~horizon:30

let prop_feasible_and_released =
  Tutil.qcheck ~count:150 "online schedules feasible, releases respected"
    QCheck.(pair Tutil.seed_arb Tutil.seed_arb)
    (fun (s1, s2) ->
      let inst = Tutil.small_resa_of_seed s1 in
      let _, records = run_batch inst ~release:(releases s2 (Instance.n_jobs inst)) in
      feasible inst records
      && List.for_all (fun (r : Simulator.record) -> r.start >= r.submit) records)

let prop_batches_partition_jobs =
  Tutil.qcheck "batches partition the job set" QCheck.(pair Tutil.seed_arb Tutil.seed_arb)
    (fun (s1, s2) ->
      let inst = Tutil.small_resa_of_seed s1 in
      let rng = Prng.create ~seed:s2 in
      let release = Array.init (Instance.n_jobs inst) (fun _ -> Prng.int rng ~bound:10) in
      let r = Online.run_reference inst ~release in
      List.sort Int.compare (List.concat r.batches) = List.init (Instance.n_jobs inst) Fun.id)

(* Each inner policy by batches gives the reference's starts with the
   offline run of the same policy. *)
let prop_matches_reference (inner, offline) =
  Tutil.qcheck
    (Printf.sprintf "batch %s = reference" inner.Policy.name)
    QCheck.(pair Tutil.seed_arb Tutil.seed_arb)
    (fun (s1, s2) ->
      let inst = Tutil.small_resa_of_seed s1 in
      let release = releases s2 (Instance.n_jobs inst) in
      let _, records = run_batch ~policy:inner inst ~release in
      Tutil.starts_by_id records = starts inst (Online.run_reference ~offline inst ~release).schedule)

let differential =
  List.map prop_matches_reference
    [
      (Policy.aggressive, fun i -> Resa_algos.Lsrc.run i);
      (Policy.fcfs, fun i -> Resa_algos.Fcfs.run i);
      (Policy.easy, fun i -> Resa_algos.Backfill.easy i);
      (Policy.conservative, fun i -> Resa_algos.Backfill.conservative i);
    ]

(* m = 4: a narrow job arrives while a wide batch runs, and would fit
   beside it. Plain LSRC starts it at once; by batches it waits for the
   batch's end, held by the policy, not by the capacity. *)
let test_arrival_held_until_batch_end () =
  let arrivals =
    [ Tutil.exact (Job.make ~id:0 ~p:10 ~q:3) 0; Tutil.exact (Job.make ~id:1 ~p:2 ~q:1) 1 ]
  in
  let _, plain = Tutil.simulate ~policy:Policy.aggressive ~m:4 arrivals in
  Alcotest.(check (list int)) "aggressive" [ 0; 1 ] (Tutil.starts_by_id plain);
  let obs, events = Tutil.recorder () in
  let _, batched = Tutil.simulate ~obs ~policy:(Policy.batch Policy.aggressive) ~m:4 arrivals in
  Alcotest.(check (list int)) "batch aggressive" [ 0; 10 ] (Tutil.starts_by_id batched);
  let held =
    List.filter_map
      (function
        | Resa_obs.Trace.Head_blocked { time = 1; job = 1; reason; _ } -> Some reason
        | _ -> None)
      (events ())
  in
  Alcotest.(check bool) "held by the policy at its arrival" true
    (held = [ Resa_obs.Trace.Held_by_policy ])

(* Whether every job starts at or after its batch opened, replaying the
   batch rule on the submissions ([subs], [(submit, estimate)] in
   submission order) and the starts ([starts.(i)] for [subs.(i)]): a batch
   opens at the previous batch's end or at the next submission, whichever
   is later, holds every job submitted by then, and ends at its largest
   [start + estimate]. *)
let batches_wait subs starts =
  let n = Array.length subs in
  let rec batch i opened ended ok =
    if i < n && fst subs.(i) <= opened then
      batch (i + 1) opened (max ended (starts.(i) + snd subs.(i))) (ok && starts.(i) >= opened)
    else (i, ended, ok)
  in
  let rec go i ended =
    i >= n
    ||
    let j, ended, ok = batch i (max ended (fst subs.(i))) ended true in
    ok && go j ended
  in
  go 0 0

let prop_overestimates =
  Tutil.qcheck ~count:150 "overestimates: feasible, batches wait for the estimated end"
    QCheck.(pair Tutil.seed_arb Tutil.seed_arb)
    (fun (s1, s2) ->
      let inst = Tutil.small_resa_of_seed s1 in
      let n = Instance.n_jobs inst in
      let rng = Prng.create ~seed:s2 in
      let release = Tutil.uniform_arrivals rng ~n ~horizon:30 in
      let subs =
        Array.init n (fun i ->
            let p = Job.p (Instance.job inst i) in
            (release.(i), p + Prng.int rng ~bound:(2 * p)))
      in
      let arrivals =
        List.init n (fun i ->
            Simulator.{ job = Instance.job inst i; submit = release.(i); estimate = snd subs.(i) })
      in
      List.for_all
        (fun inner ->
          let _, records =
            Tutil.simulate ~policy:(Policy.batch inner) ~m:(Instance.m inst)
              ~reservations:(Array.to_list (Instance.reservations inst))
              arrivals
          in
          feasible inst records && batches_wait subs (Array.of_list (Tutil.starts_by_id records)))
        Policy.all)

(* Job 0 asks for 10 and runs 2; job 1, the final arrival, comes at 1 and
   waits for the estimated end, 10, an instant with no completion and no
   arrival: the combinator's own wake-up opens the last batch there, with
   no forced wake from the engine, and the run ends. *)
let test_last_batch_opens_at_its_wake () =
  let arrivals =
    [
      Simulator.{ job = Job.make ~id:0 ~p:2 ~q:4; submit = 0; estimate = 10 };
      Tutil.exact (Job.make ~id:1 ~p:1 ~q:1) 1;
    ]
  in
  List.iter
    (fun inner ->
      let obs, events = Tutil.recorder () in
      let stats, records = Tutil.simulate ~obs ~policy:(Policy.batch inner) ~m:4 arrivals in
      let name = inner.Policy.name in
      Alcotest.(check (list int)) (name ^ " starts") [ 0; 10 ] (Tutil.starts_by_id records);
      Alcotest.(check int) (name ^ " makespan") 11 stats.Simulator.makespan;
      Alcotest.(check bool) (name ^ " no forced wake") false
        (List.exists
           (function Resa_obs.Trace.Sim_wake { forced = true; _ } -> true | _ -> false)
           (events ())))
    Policy.all

let suite =
  [
    Alcotest.test_case "single batch when all released at 0" `Quick test_all_released_at_zero_single_batch;
    Alcotest.test_case "release dates respected" `Quick test_release_dates_respected;
    Alcotest.test_case "batches are sequential" `Quick test_batches_do_not_overlap;
    Alcotest.test_case "coarse doubling bound" `Quick test_doubling_guarantee_example;
    Alcotest.test_case "reservations respected across batches" `Quick test_reservations_respected_across_batches;
    Alcotest.test_case "bad inputs rejected" `Quick test_bad_release_rejected;
    prop_feasible_and_released;
    prop_batches_partition_jobs;
  ]
  @ differential
  @ [
      Alcotest.test_case "arrival held until the batch ends" `Quick
        test_arrival_held_until_batch_end;
      prop_overestimates;
      Alcotest.test_case "last batch opens at its own wake" `Quick
        test_last_batch_opens_at_its_wake;
    ]
