open Resa_core

let conservative ?(priority = Priority.Fifo) inst =
  Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.conservative inst
    (Priority.order priority inst)

let easy ?(priority = Priority.Fifo) inst =
  Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.easy inst (Priority.order priority inst)

let no_earlier_job_delayed inst order sched =
  (* Replan each prefix; every job must sit exactly at its earliest fit given
     only its predecessors in the queue. *)
  let free = ref (Instance.availability inst) in
  let ok = ref true in
  Array.iter
    (fun i ->
      let j = Instance.job inst i in
      let s = Schedule.start sched i in
      (match Profile.earliest_fit !free ~from:0 ~dur:(Job.p j) ~need:(Job.q j) with
      | Some e when e = s -> ()
      | _ -> ok := false);
      if !ok then free := Profile.reserve !free ~start:s ~dur:(Job.p j) ~need:(Job.q j))
    order;
  !ok
