open Resa_core

let conservative_order inst order =
  Priority.check_order "Backfill.conservative_order" inst order;
  let n = Instance.n_jobs inst in
  let starts = Array.make n (-1) in
  let free = Timeline.of_profile (Instance.availability inst) in
  Array.iter
    (fun i ->
      let j = Instance.job inst i in
      match Timeline.earliest_fit free ~from:0 ~dur:(Job.p j) ~need:(Job.q j) with
      | None -> assert false
      | Some s ->
        starts.(i) <- s;
        Timeline.reserve free ~start:s ~dur:(Job.p j) ~need:(Job.q j))
    order;
  Schedule.make starts

let conservative ?(priority = Priority.Fifo) inst =
  conservative_order inst (Priority.order priority inst)

let easy_order inst order =
  Priority.check_order "Backfill.easy_order" inst order;
  Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.easy inst order

let easy ?(priority = Priority.Fifo) inst = easy_order inst (Priority.order priority inst)

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
