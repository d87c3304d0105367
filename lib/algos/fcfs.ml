open Resa_core

let run_order inst order =
  Priority.check_order "Fcfs.run_order" inst order;
  Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.fcfs inst order

let run ?(priority = Priority.Fifo) inst = run_order inst (Priority.order priority inst)

let respects_order inst sched order =
  ignore inst;
  let ok = ref true in
  let prev = ref min_int in
  Array.iter
    (fun i ->
      let s = Schedule.start sched i in
      if s < !prev then ok := false;
      prev := s)
    order;
  !ok
