(* The schedulers, bounds and certificate that run on a [Timeline] against
   their persistent-[Profile] oracles in [test/oracles], on random
   reserved instances: the same starts, values and verdicts. *)

open Resa_core
open Resa_algos
open Resa_exact
module Oracle = Resa_oracles

(* An α-restricted or a non-increasing reserved instance. *)
let reserved_of_seed seed =
  let rng = Prng.create ~seed in
  let n = Prng.int_incl rng ~lo:1 ~hi:30 in
  if Prng.bool rng then
    let m = 4 * Prng.int_incl rng ~lo:1 ~hi:8 in
    let alpha = [| 0.25; 0.5; 0.75 |].(Prng.int rng ~bound:3) in
    Resa_gen.Random_inst.alpha_restricted rng ~m ~n ~alpha ~pmax:10 ()
  else
    let m = Prng.int_incl rng ~lo:2 ~hi:16 in
    Resa_gen.Random_inst.non_increasing rng ~m ~n ~pmax:10 ~levels:(Prng.int_incl rng ~lo:1 ~hi:4)

(* One machine, n <= 10 unit-width jobs, disjoint reservations. *)
let single_machine_of_seed seed =
  let rng = Prng.create ~seed in
  let n = Prng.int_incl rng ~lo:1 ~hi:10 in
  let jobs = List.init n (fun i -> Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:8) ~q:1) in
  let rec windows id from =
    if id = 4 || Prng.bool rng then []
    else
      let start = from + Prng.int rng ~bound:6 in
      let p = Prng.int_incl rng ~lo:1 ~hi:5 in
      Reservation.make ~id ~start ~p ~q:1 :: windows (id + 1) (start + p)
  in
  Instance.create_exn ~m:1 ~jobs ~reservations:(windows 0 0)

let prop_shelf =
  Tutil.qcheck ~count:200 "Shelf.run = Profile shelf packer (NFDH, FFDH)" Tutil.seed_arb
    (fun seed ->
      let inst = reserved_of_seed seed in
      List.for_all
        (fun v ->
          Schedule.starts (Shelf.run v inst) = Schedule.starts (Oracle.Shelf.run_reference v inst))
        [ Shelf.Nfdh; Shelf.Ffdh ])

let prop_single_machine =
  Tutil.qcheck ~count:200 "Single_machine.solve = Profile subset DP (m = 1)" Tutil.seed_arb
    (fun seed ->
      let inst = single_machine_of_seed seed in
      let sched, opt = Single_machine.solve inst in
      let sched', opt' = Oracle.Single_machine.solve_reference inst in
      opt = opt' && Schedule.starts sched = Schedule.starts sched')

let prop_bounds =
  Tutil.qcheck ~count:300 "work, fit and serial bounds = Profile bounds" Tutil.seed_arb
    (fun seed ->
      let inst = if seed mod 4 = 0 then single_machine_of_seed seed else reserved_of_seed seed in
      Lower_bounds.work_bound inst = Oracle.Lower_bounds.work_bound inst
      && Lower_bounds.fit_bound inst = Oracle.Lower_bounds.fit_bound inst
      && Lower_bounds.serial_bound inst = Oracle.Lower_bounds.serial_bound inst)

(* Conservative backfilling passes the certificate; the other policies'
   schedules and a conservative one with a job moved one unit later
   mostly fail it. *)
let prop_certificate =
  Tutil.qcheck ~count:200 "no_earlier_job_delayed = Profile certificate" Tutil.seed_arb
    (fun seed ->
      let inst = reserved_of_seed seed in
      let order = Priority.order (Priority.Random (seed land 0xffff)) inst in
      let run policy = Resa_sim.Simulator.run_order ~policy inst order in
      let cons = run Resa_sim.Policy.conservative in
      let moved =
        let s = Schedule.starts cons in
        let i = seed mod Array.length s in
        s.(i) <- s.(i) + 1;
        Schedule.make s
      in
      List.for_all
        (fun sched ->
          Backfill.no_earlier_job_delayed inst order sched
          = Oracle.Backfill.no_earlier_job_delayed_reference inst order sched)
        [ cons; moved; run Resa_sim.Policy.easy; run Resa_sim.Policy.aggressive; run Resa_sim.Policy.fcfs ])

let suite = [ prop_shelf; prop_single_machine; prop_bounds; prop_certificate ]
