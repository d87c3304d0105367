open Resa_core

let run ?(priority = Priority.Fifo) inst =
  Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.fcfs inst (Priority.order priority inst)

let respects_order sched order =
  let ok = ref true in
  let prev = ref min_int in
  Array.iter
    (fun i ->
      let s = Schedule.start sched i in
      if s < !prev then ok := false;
      prev := s)
    order;
  !ok
