open Resa_core

let max_jobs = 20

let solve inst =
  if Instance.m inst <> 1 then invalid_arg "Single_machine.solve: requires m = 1";
  let n = Instance.n_jobs inst in
  if n > max_jobs then invalid_arg "Single_machine.solve: too many jobs";
  let avail = Timeline.of_profile (Instance.availability inst) in
  let durations = Array.init n (fun i -> Job.p (Instance.job inst i)) in
  Array.iteri
    (fun i j ->
      ignore i;
      if Job.q j <> 1 then invalid_arg "Single_machine.solve: jobs must have q = 1")
    (Instance.jobs inst);
  let size = 1 lsl n in
  (* frontier.(mask): earliest instant by which exactly the jobs in [mask]
     can have completed; parent.(mask): last job of a witness sequence. *)
  let frontier = Array.make size max_int in
  let parent = Array.make size (-1) in
  frontier.(0) <- 0;
  for mask = 0 to size - 1 do
    if frontier.(mask) < max_int then
      for j = 0 to n - 1 do
        if mask land (1 lsl j) = 0 then begin
          let mask' = mask lor (1 lsl j) in
          let start = Timeline.earliest_fit_at avail ~from:frontier.(mask) ~dur:durations.(j) ~need:1 in
          let finish = start + durations.(j) in
          if finish < frontier.(mask') then begin
            frontier.(mask') <- finish;
            parent.(mask') <- j
          end
        end
      done
  done;
  (* Reconstruct the witness sequence. *)
  let starts = Array.make n 0 in
  let rec rebuild mask =
    if mask <> 0 then begin
      let j = parent.(mask) in
      let mask' = mask lxor (1 lsl j) in
      let start = Timeline.earliest_fit_at avail ~from:frontier.(mask') ~dur:durations.(j) ~need:1 in
      starts.(j) <- start;
      rebuild mask'
    end
  in
  rebuild (size - 1);
  (Schedule.make starts, frontier.(size - 1))

let optimal_makespan inst = snd (solve inst)
