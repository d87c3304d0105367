open Resa_core

let run_order inst order =
  Priority.check_order "Fcfs.run_order" inst order;
  let n = Instance.n_jobs inst in
  let starts = Array.make n (-1) in
  let free = Timeline.of_profile (Instance.availability inst) in
  let frontier = ref 0 in
  Array.iter
    (fun i ->
      let j = Instance.job inst i in
      match Timeline.earliest_fit free ~from:!frontier ~dur:(Job.p j) ~need:(Job.q j) with
      | None -> assert false (* q <= m and the tail capacity is m *)
      | Some s ->
        starts.(i) <- s;
        Timeline.reserve free ~start:s ~dur:(Job.p j) ~need:(Job.q j);
        frontier := s)
    order;
  Schedule.make starts

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
