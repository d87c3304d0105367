open Resa_core

let run ?(priority = Priority.Fifo) inst =
  Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.aggressive inst
    (Priority.order priority inst)

let decision_times inst sched =
  let cmax = Schedule.makespan inst sched in
  let avail_bps = Array.to_list (Profile.breakpoints (Instance.availability inst)) in
  let completions =
    List.init (Schedule.n_jobs sched) (fun i -> Schedule.completion inst sched i)
  in
  List.sort_uniq Int.compare
    (List.filter (fun t -> t <= cmax) (0 :: (avail_bps @ completions)))

let is_greedy inst sched =
  match Schedule.validate inst sched with
  | Error _ -> false
  | Ok () ->
    let n = Schedule.n_jobs sched in
    (* Free capacity seen by the scheduler at decision time [t] is the
       availability minus the windows of jobs started at or before [t] —
       jobs started later do not count, they were pending then. Decision
       times are ascending, so one shared timeline swept forward (each
       job's window subtracted exactly once, when the sweep first reaches
       its start) replaces the per-instant profile rebuild over all [n]
       jobs that used to make this check quadratic. The subtracted jobs at
       any prefix use at most what the full (validated) schedule uses, so
       the timeline stays a correct free-capacity function throughout. *)
    let free = Timeline.of_profile (Instance.availability inst) in
    let by_start = Array.init n Fun.id in
    Array.sort (fun a b -> compare (Schedule.start sched a) (Schedule.start sched b)) by_start;
    let next = ref 0 in
    let advance_to t =
      while
        !next < n && Schedule.start sched by_start.(!next) <= t
      do
        let i = by_start.(!next) in
        let s = Schedule.start sched i in
        let j = Instance.job inst i in
        Timeline.change free ~lo:s ~hi:(s + Job.p j) ~delta:(-Job.q j);
        incr next
      done
    in
    (* Maximality: at every decision time, no job that was still pending
       could have had its whole window inserted. *)
    List.for_all
      (fun t ->
        advance_to t;
        let rec jobs_ok i =
          i >= n
          ||
          let s = Schedule.start sched i in
          let j = Instance.job inst i in
          (s <= t || Timeline.min_on free ~lo:t ~hi:(t + Job.p j) < Job.q j)
          && jobs_ok (i + 1)
        in
        jobs_ok 0)
      (decision_times inst sched)
