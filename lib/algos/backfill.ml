open Resa_core

let conservative ?(priority = Priority.Fifo) inst =
  Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.conservative inst
    (Priority.order priority inst)

let easy ?(priority = Priority.Fifo) inst =
  Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.easy inst (Priority.order priority inst)

let no_earlier_job_delayed inst order sched =
  (* Replan each prefix; every job must sit exactly at its earliest fit given
     only its predecessors in the queue. *)
  let free = Timeline.of_profile (Instance.availability inst) in
  let ok = ref true in
  Array.iter
    (fun i ->
      let j = Instance.job inst i in
      let s = Schedule.start sched i in
      let dur = Job.p j and need = Job.q j in
      let earliest = Timeline.earliest_fit_at free ~from:0 ~dur ~need in
      ok := !ok && s >= 0 && earliest = s && Timeline.reserve free ~start:s ~dur ~need)
    order;
  !ok
